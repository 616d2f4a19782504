"""Spans around the calls into each trimask module, kept in memory.

The tracer replaces public functions at the names the program looks them
up by (see ``TARGETS``) with wrappers that record a span: name, start, end,
parent span and operation id, plus one small ``info`` value where a layer
metric needs it. Wrappers record only while ``active`` is set, so the
benchmark's own output checks, which call the same functions, add no spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); a span name of None takes the layer name
# that unet_forward passes to its convolutions.
TARGETS = (
    ("trimask.cli", "main", "cli"),
    ("trimask.cli", "enhance", "enhance"),
    ("trimask.cli", "load_weights", "unet.load_weights"),
    ("trimask.enhance", "enhance", "enhance"),
    ("trimask.enhance", "oracle_reconstruct", "enhance"),
    ("trimask.enhance", "stream_push", "streaming.push"),
    ("trimask.enhance", "StreamState", "streaming.state_init"),
    ("trimask.enhance", "count_ops", "opcount.count_ops"),
    ("trimask.enhance", "unet_forward", "unet.forward"),
    ("trimask.enhance", "assemble_masks", "masking.assemble"),
    ("trimask.enhance", "quadrangle_decompose", "masking.decompose"),
    ("trimask.enhance", "remix", "masking.remix"),
    ("trimask.enhance", "compress", "dynamics.compress"),
    ("trimask.masking", "remix", "masking.remix"),
    ("trimask.masking", "oracle_fit", "masking.oracle_fit"),
    ("trimask.dynamics", "compress", "dynamics.compress"),
    ("trimask.unet", "conv_valid", None),
    ("trimask.unet", "conv_transposed_valid", None),
    ("trimask.spectral", "stft", "spectral.stft"),
    ("trimask.spectral", "extract_features", "spectral.features"),
    ("trimask.spectral", "istft", "spectral.istft"),
    ("trimask.spectral", "trim_low_bins", "spectral.bins"),
    ("trimask.spectral", "restore_low_bins", "spectral.bins"),
    ("trimask.wavio", "read_wav", "wavio.read"),
    ("trimask.wavio", "write_wav", "wavio.write"),
)

LAYER_NAMES = tuple(f"enc{i}" for i in range(1, 6)) + tuple(f"dec{i}" for i in range(1, 6))


def _conv_name(args, kwargs) -> str:
    return "unet." + (kwargs["name"] if "name" in kwargs else args[6])


def _push_info(args, result):
    """(index of the pushed frame, whether the push emitted)."""
    return (args[1].frames_ingested - 1, result is not None)


def _compress_info(args, result):
    return len(args[0])


_INFO = {"streaming.push": _push_info, "dynamics.compress": _compress_info}


class Tracer:
    """Records spans ``[name, start, end, parent, op, info]`` in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self._saved = []

    def _wrap(self, fn, name):
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name if name is not None else _conv_name(args, kwargs)
            rec = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


def _encoder_lookback(cfg) -> list:
    """Frames each encoder level's newest output lags the push (level 0..L)."""
    delta, lattice = [0], 1
    for spec in cfg.encoder:
        delta.append(delta[-1] + (spec.kernel_t - 1) * lattice)
        lattice *= spec.stride_t
    return delta


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, wall_s: float, audio_s: float, ops: int, cfg) -> dict:
    """Per-layer figures from one traced section.

    Times are seconds of self time per second of audio (``s/s``), so that
    the ``_s`` figures plus ``trace.untraced_s`` sum to the traced RTF.
    Multiplies are the exact ``count_ops`` figures: naive per windowed
    forward pass, and per streaming push the encoder levels reached so far
    plus, on an emitting push, the decoder and head.
    """
    import trimask

    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = dur - child
    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    untraced = wall_s - top

    by_self, by_incl, by_count = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, s in enumerate(spans):
        by_self[s[0]] += self_t[i]
        by_incl[s[0]] += dur[i]
        by_count[s[0]] += 1
    closure = abs(float(self_t.sum()) + untraced - wall_s)
    if closure > 1e-6 * wall_s:
        raise RuntimeError(f"span self times do not sum to the traced wall time ({closure:.3e} s)")

    report = trimask.count_ops(cfg)
    naive = {l.name: l.naive_mults for l in report.layers}
    stream = {l.name: l.streaming_mults for l in report.layers}

    def per_audio(x):
        return x / audio_s

    def rate(mults, seconds):
        return mults / seconds / 1e9 if seconds > 0 else 0.0

    pushes = [(dur[i], s[5]) for i, s in enumerate(spans) if s[0] == "streaming.push"]
    warm = [d * 1e6 for d, (_, emitted) in pushes if not emitted]
    emit = [d * 1e6 for d, (_, emitted) in pushes if emitted]
    push_mults = 0
    if pushes:
        delta = _encoder_lookback(cfg)
        dec_head = sum(v for k, v in stream.items() if not k.startswith("enc"))
        for _, (idx, emitted) in pushes:
            push_mults += sum(stream[f"enc{l}"] for l in range(1, cfg.depth + 1)
                              if idx >= delta[l])
            push_mults += dec_head if emitted else 0
    push_s = by_incl["streaming.push"]

    fwd_calls = by_count["unet.forward"]
    compress_samples = sum(s[5] for s in spans if s[0] == "dynamics.compress")

    m = {
        "streaming.push_s": per_audio(push_s),
        "streaming.pushes": len(pushes) / ops,
        "streaming.emit_frac": len(emit) / len(pushes) if pushes else 0.0,
        "streaming.push_warm_us_p50": _pct(warm, 50),
        "streaming.push_emit_us_p50": _pct(emit, 50),
        "streaming.push_emit_us_p99": _pct(emit, 99),
        "streaming.gmacs": rate(push_mults, push_s),
        "streaming.state_init_s": per_audio(by_self["streaming.state_init"]),
        "opcount.count_ops_s": per_audio(by_self["opcount.count_ops"]),
        "unet.forward_s": per_audio(by_incl["unet.forward"]),
        "unet.forward_calls": fwd_calls / ops,
        "unet.gmacs": rate(fwd_calls * sum(naive.values()), by_incl["unet.forward"]),
        "unet.useful_mult_frac": report.streaming_total / report.naive_total,
        "unet.head_s": per_audio(by_self["unet.forward"]),
    }
    for layer in LAYER_NAMES:
        m[f"unet.{layer}_s"] = per_audio(by_self[f"unet.{layer}"])
    for layer in LAYER_NAMES:
        m[f"unet.{layer}.gmacs"] = rate(by_count[f"unet.{layer}"] * naive.get(layer, 0),
                                        by_self[f"unet.{layer}"])
    m.update({
        "unet.load_weights_s": per_audio(by_self["unet.load_weights"]),
        "wavio.read_s": per_audio(by_self["wavio.read"]),
        "wavio.write_s": per_audio(by_self["wavio.write"]),
        "cli.self_s": per_audio(by_self["cli"]),
        "spectral.stft_s": per_audio(by_self["spectral.stft"]),
        "spectral.features_s": per_audio(by_self["spectral.features"]),
        "spectral.istft_s": per_audio(by_self["spectral.istft"]),
        "spectral.bins_s": per_audio(by_self["spectral.bins"]),
        "masking.oracle_fit_s": per_audio(by_self["masking.oracle_fit"]),
        "masking.assemble_s": per_audio(by_self["masking.assemble"]),
        "masking.decompose_s": per_audio(by_self["masking.decompose"]),
        "masking.remix_s": per_audio(by_self["masking.remix"]),
        "dynamics.compress_s": per_audio(by_self["dynamics.compress"]),
        "dynamics.msamples_per_s": (compress_samples / by_self["dynamics.compress"] / 1e6
                                    if compress_samples else 0.0),
        "enhance.self_s": per_audio(by_self["enhance"]),
        "trace.untraced_s": per_audio(untraced),
    })
    return m
