"""The four benchmark workloads: seeded inputs, the timed operation, its checks.

Every workload reaches the program through module attributes looked up at
call time (``self.E.enhance``, ``self.cli.main``, ...), so the tracer's
wrappers, which replace those attributes, see every call.

Inputs come only from ``trimask.simulate`` driven by the ``--seed`` argument;
the program receives the generated signals, never the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import trimask
from trimask.simulate import ScenarioRanges, sample_scenario
from trimask.spectral import PRESETS

# tolerance of the component-closure pin in tests/test_enhance.py
CLOSURE_RTOL = 1e-6
# pin of test_backend_equivalence_end_to_end
BACKEND_ATOL = 1e-10
# trimask.cli.ORACLE_SI_SDR_FLOOR_DB
ORACLE_FLOOR_DB = 50.0
REVERB_GAIN_DB = -15.0
SR = 16000
COMPONENTS = ("direct", "reverb", "noise")


def scenario_seeds(seed: int, count: int) -> list:
    """Distinct scenario seeds derived from the benchmark seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def concatenated_mixture(seed: int, seconds: int) -> np.ndarray:
    """A mixture of ``seconds`` length built from seeded 2 s scenarios."""
    parts = [sample_scenario(s).x.samples for s in scenario_seeds(seed, seconds // 2)]
    return np.concatenate(parts)


def closure_reference(x: np.ndarray, stft_cfg, n_trim: int) -> np.ndarray:
    """The front-end round trip the three components must sum to."""
    spectral = importlib.import_module("trimask.spectral")
    spec = spectral.restore_low_bins(
        spectral.trim_low_bins(spectral.stft(x, stft_cfg), n_trim), n_trim)
    return spectral.istft(spec, stft_cfg, length=len(x)).samples


def check_components(parts, n: int, reference: np.ndarray) -> list:
    """Finite, full-length components whose sum closes on ``reference``."""
    failures = []
    for label, p in parts.items():
        if p.shape != (n,):
            failures.append(f"{label}: length {p.shape} != ({n},)")
        elif not np.all(np.isfinite(p)):
            failures.append(f"{label}: non-finite samples")
    if failures:
        return failures
    resum = parts["direct"] + parts["reverb"] + parts["noise"]
    err = float(np.linalg.norm(resum - reference))
    if not err <= CLOSURE_RTOL * float(np.linalg.norm(reference)):
        failures.append(f"closure residual {err:.3e} above {CLOSURE_RTOL:g} x |ref|")
    return failures


def check_frames(emitted: int, total: int, in_frames: int) -> list:
    if emitted != total - (in_frames - 1):
        return [f"frames_emitted {emitted} != frames_total {total} - {in_frames - 1}"]
    return []


def check_drc(before: np.ndarray, after: np.ndarray) -> list:
    """At 0 dB makeup the compressor never raises a sample."""
    if after.shape != before.shape or not np.all(np.isfinite(after)):
        return ["drc output not finite or wrong length"]
    if not np.all(np.abs(after) <= np.abs(before)):
        return ["drc raised a sample above its input"]
    return []


class Workload:
    """One workload: generated inputs, a timed operation and its checks.

    ``timed_call`` names the ``trimask.enhance`` attribute whose calls are
    the latency samples; ``None`` makes the whole operation the sample.
    """

    name = ""
    preset = "rt"
    timed_call = None
    audio_s = 0.0  # seconds of audio one operation processes
    inputs = 1  # distinct inputs; operation i runs input i % inputs

    def __init__(self, seed: int, smoke: bool, weights_path: Path, workdir: Path):
        self.E = importlib.import_module("trimask.enhance")
        self.masking = importlib.import_module("trimask.masking")
        self.dynamics = importlib.import_module("trimask.dynamics")
        self.stft_cfg = PRESETS[self.preset]
        self.cfg = trimask.config_for_preset(self.stft_cfg)
        self.weights = trimask.load_weights(weights_path, self.cfg)
        self.weights_path = weights_path
        self.workdir = workdir
        self.seed = seed
        self.smoke = smoke

    def warmup(self) -> None:
        """One untimed operation. Its failures recur in the timed operations,
        where they are counted."""
        self.check(self.op(0), 0)

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out, i: int) -> list:
        raise NotImplementedError


class _MixtureWorkload(Workload):
    """One long mixture per operation through ``enhance``.

    The warm-up runs a 2 s slice of the input, so it costs little next to
    one operation.
    """

    seconds = smoke_seconds = 0
    mode = ""
    drc = False

    def __init__(self, *args):
        super().__init__(*args)
        self.x = concatenated_mixture(self.seed,
                                      self.smoke_seconds if self.smoke else self.seconds)
        self.audio_s = len(self.x) / SR
        self.reference = closure_reference(self.x, self.stft_cfg,
                                           self.stft_cfg.discard_low_bins)

    def input_facts(self) -> dict:
        return {"audio_s_per_op": self.audio_s,
                "frames_per_op": self.stft_cfg.frame_count(len(self.x))}

    def _run(self, x):
        return self.E.enhance(x, self.weights, self.cfg, self.stft_cfg, mode=self.mode,
                              reverb_gain_db=REVERB_GAIN_DB,
                              drc=self.dynamics.DrcConfig() if self.drc else None)

    def warmup(self) -> None:
        self._run(self.x[: 2 * SR])

    def op(self, i: int):
        return self._run(self.x)

    def check(self, res, i: int) -> list:
        parts = {c: getattr(res, c).samples for c in COMPONENTS}
        failures = check_components(parts, len(self.x), self.reference)
        failures += check_frames(res.frames_emitted, res.frames_total, self.cfg.in_frames)
        if failures:
            return failures
        mixed = self.masking.remix(res.direct, res.reverb, REVERB_GAIN_DB).samples
        if self.drc:
            return check_drc(mixed, res.remixed.samples)
        if not np.array_equal(res.remixed.samples, mixed):
            return ["remix != direct + g * reverb"]
        return []


class StreamRtLong(_MixtureWorkload):
    """One long rt mixture through the streaming backend, DRC off."""

    name = "stream-rt-long"
    timed_call = "stream_push"
    seconds, smoke_seconds = 20, 4
    mode = "causal-stream"


class WindowNrtDrc(_MixtureWorkload):
    """One nrt mixture through the windowed backend, DRC on."""

    name = "window-nrt-drc"
    preset = "nrt"
    timed_call = "unet_forward"
    seconds, smoke_seconds = 6, 2
    mode = "noncausal-window"
    drc = True


class CliRtClips(Workload):
    """Short rt clips, each through one in-process ``trimask enhance``."""

    name = "cli-rt-clips"

    def __init__(self, *args):
        super().__init__(*args)
        self.cli = importlib.import_module("trimask.cli")
        wavio = importlib.import_module("trimask.wavio")
        ranges = ScenarioRanges(segment_samples=SR)  # 1 s clips
        count = 3 if self.smoke else 40
        self.clips = []
        for k, s in enumerate(scenario_seeds(self.seed, count)):
            clip_dir = self.workdir / f"clip{k:02d}"
            clip_dir.mkdir(parents=True, exist_ok=True)
            wavio.write_wav(clip_dir / "in.wav", sample_scenario(s, ranges).x)
            self.clips.append(clip_dir)
        self.inputs = len(self.clips)
        self.audio_s = 1.0
        self._expected = {}

    def input_facts(self) -> dict:
        return {"audio_s_per_op": self.audio_s, "distinct_clips": len(self.clips)}

    def op(self, i: int):
        clip_dir = self.clips[i % len(self.clips)]
        argv = ["enhance", "--input", str(clip_dir / "in.wav"),
                "--output", str(clip_dir / "out.wav"),
                "--weights", str(self.weights_path),
                "--emit-components", str(clip_dir / "parts")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def _reference(self, k: int):
        """The in-process remix and round trip of clip ``k``, computed once."""
        if k not in self._expected:
            x = wavfile.read(self.clips[k] / "in.wav")[1].astype(np.float64)
            res = self.E.enhance(x, self.weights, self.cfg, self.stft_cfg,
                                 mode="causal-stream", reverb_gain_db=REVERB_GAIN_DB)
            self._expected[k] = (res.remixed.samples.astype(np.float32),
                                 closure_reference(x, self.stft_cfg,
                                                   self.stft_cfg.discard_low_bins))
        return self._expected[k]

    def check(self, out, i: int) -> list:
        rc, text = out
        if rc != 0:
            return [f"cli exit code {rc}"]
        k = i % len(self.clips)
        clip_dir = self.clips[k]
        remix32, reference = self._reference(k)
        failures = []
        m = re.search(r"\((\d+)/(\d+) frames masked", text)
        if m is None:
            failures.append("cli did not report its frame counts")
        else:
            failures += check_frames(int(m.group(1)), int(m.group(2)), self.cfg.in_frames)
        files = [clip_dir / "out.wav"] + [clip_dir / "parts" / f"{c}.wav" for c in COMPONENTS]
        written, *parts = (wavfile.read(f)[1] for f in files)
        # Remove the outputs while they are young: overwriting a file whose
        # blocks are already allocated costs tens of ms on ext4 mounted with
        # `discard`, which would swamp the clip time.
        for f in files:
            f.unlink()
        if not np.array_equal(written, remix32):
            failures.append("written remix differs from the in-process remix at float32")
        parts = {c: p.astype(np.float64) for c, p in zip(COMPONENTS, parts)}
        return failures + check_components(parts, len(reference), reference)


class OracleRtDrc(Workload):
    """Oracle masks on 2 s rt scenarios, then remix and DRC: no network."""

    name = "oracle-rt-drc"

    def __init__(self, *args):
        super().__init__(*args)
        count = 2 if self.smoke else 64
        self.truths = [sample_scenario(s) for s in scenario_seeds(self.seed, count)]
        self.inputs = len(self.truths)
        self.references = [closure_reference(t.x.samples, self.stft_cfg, 0)
                           for t in self.truths]
        self.audio_s = len(self.truths[0].x) / SR
        self.drc_cfg = self.dynamics.DrcConfig()
        self.metrics = importlib.import_module("trimask.metrics")

    def input_facts(self) -> dict:
        return {"audio_s_per_op": self.audio_s, "distinct_scenarios": len(self.truths)}

    def op(self, i: int):
        truth = self.truths[i % len(self.truths)]
        d, r, n = self.E.oracle_reconstruct(truth, self.stft_cfg)
        mixed = self.masking.remix(d, r, REVERB_GAIN_DB)
        return d, r, n, mixed, self.dynamics.compress(mixed, self.drc_cfg)

    def check(self, out, i: int) -> list:
        k = i % len(self.truths)
        truth = self.truths[k]
        d, r, n, mixed, compressed = (s.samples for s in out)
        failures = check_components(dict(zip(COMPONENTS, (d, r, n))), len(truth.x),
                                    self.references[k])
        if failures:
            return failures
        guard = self.stft_cfg.window_size
        interior = slice(guard, len(truth.x) - guard)
        for label, ref, est in (("direct", truth.y_d.samples, d),
                                ("noise", truth.y_n.samples, n)):
            sdr = self.metrics.si_sdr(ref[interior], est[interior])
            if not sdr >= ORACLE_FLOOR_DB:
                failures.append(f"oracle {label} SI-SDR {sdr:.1f} dB below {ORACLE_FLOOR_DB:g}")
        return failures + check_drc(mixed, compressed)


WORKLOADS = {w.name: w for w in (StreamRtLong, CliRtClips, WindowNrtDrc, OracleRtDrc)}


def precheck(seed: int) -> dict:
    """Untimed agreement checks; raises RuntimeError on a mismatch.

    The two backends must agree on a 2 s rt scenario with float64 weights,
    and the instrumented multiply tallies must equal ``count_ops`` per layer
    for both presets (the tracer's GMAC/s figures rest on those counts).
    """
    stft_cfg = PRESETS["rt"]
    cfg = trimask.config_for_preset(stft_cfg)
    weights = trimask.random_weights(cfg, seed, dtype=np.float64)
    x = sample_scenario(scenario_seeds(seed, 1)[0]).x
    runs = [trimask.enhance(x, weights, cfg, stft_cfg, mode=m)
            for m in ("causal-stream", "noncausal-window")]
    diff = max(float(np.max(np.abs(getattr(runs[0], c).samples - getattr(runs[1], c).samples)))
               for c in ("direct", "reverb", "noise", "remixed"))
    if not diff < BACKEND_ATOL or runs[0].frames_emitted != runs[1].frames_emitted:
        raise RuntimeError(f"backends disagree: max |diff| {diff:.3e}")
    for preset in ("rt", "nrt"):
        pcfg = trimask.config_for_preset(PRESETS[preset])
        naive, stream = trimask.measured_ops(pcfg)
        for layer in trimask.count_ops(pcfg).layers:
            if (naive.get(layer.name, 0), stream.get(layer.name, 0)) != \
                    (layer.naive_mults, layer.streaming_mults):
                raise RuntimeError(f"{preset} {layer.name}: measured multiplies "
                                   "differ from count_ops")
    return {"backend_max_abs_diff": diff, "ops_match": True}
