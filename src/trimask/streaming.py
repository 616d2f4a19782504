"""Incremental (streaming) U-Net inference with per-layer frame queues.

The emitted value at push n is defined as the whole-window forward pass over
the analysis window ending at frame n, read out at the target position
(window end minus lookahead). Because every tensor's frame lattice is pinned
to the window end, each encoder layer gains exactly one new frame per push
(at a fixed offset behind the newest input frame) and all older frames are
reused from ring buffers. Strided layers interleave prod(s_l) lattice phases
in one ring; required_queues() reports that phase count.

Decoder transposed-convolution frames near the stream edge have truncated
contributor sets whose values legitimately change as the window advances, so
the (few) frames feeding the single emitted output are recomputed each push;
the skip-connection inputs they consume come from the encoder rings and are
never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import FEATURE_CHANNELS
from .unet import (HEAD_CHANNELS, UNetConfig, WeightSet, conv_transposed_valid, conv_valid,
                   leaky, validate_weights)


def required_queues(cfg: UNetConfig, depth: int) -> int:
    """Number of stride-phase queues at an encoder depth: prod of temporal
    strides of layers 1..depth."""
    if not (1 <= depth <= cfg.depth):
        raise ValueError(f"depth must be in [1, {cfg.depth}], got {depth}")
    count = 1
    for spec in cfg.encoder[:depth]:
        count *= spec.stride_t
    return count


@dataclass(frozen=True)
class _DecoderStep:
    """One decoder layer's per-push work: output frames and their real taps."""
    layer: int                 # 1-based decoder layer
    inputs: tuple              # window indices of the input frames, ascending
    out_frames: tuple          # window indices of frames to compute
    taps: tuple                # per out frame: tuple of (in_idx, kernel_tap)
    skip_level: int            # encoder level providing the concat half (0 = none)


class StreamPlan:
    """Static per-config schedule for one push (window coordinates)."""

    def __init__(self, cfg: UNetConfig):
        self.cfg = cfg
        L = cfg.depth
        t0 = cfg.in_frames

        # encoder geometry
        self.enc_T = [t0]
        self.lattice = [1]
        self.delta = [0]  # lookback of each level's newest frame behind the push
        for spec in cfg.encoder:
            self.delta.append(self.delta[-1] + (spec.kernel_t - 1) * self.lattice[-1])
            self.lattice.append(self.lattice[-1] * spec.stride_t)
            self.enc_T.append((self.enc_T[-1] - spec.kernel_t) // spec.stride_t + 1)
        for l in range(L + 1):
            assert self.delta[l] == (t0 - 1) - (self.enc_T[l] - 1) * self.lattice[l]

        self.enc_F = [cfg.in_bins]
        for spec in cfg.encoder:
            self.enc_F.append((self.enc_F[-1] - spec.kernel_f) // spec.stride_f + 1)

        self.warmup = t0  # pushes before the first emission

        # decoder needs, resolved backward from the single target frame
        enc_needs = {l: set() for l in range(1, L + 1)}
        dec_T = [t for _, t in cfg.decoder_shapes()]
        assert dec_T[L] == t0

        needed = {cfg.target_index}
        rev_steps = []
        for j in range(L, 0, -1):
            spec = cfg.decoder[j - 1]
            kt, st = spec.kernel_t, spec.stride_t
            in_len = dec_T[j - 1]
            out_frames = tuple(sorted(needed))
            taps = []
            need_in = set()
            for p in out_frames:
                lo = max(0, -(-(p - kt + 1) // st))  # ceil
                hi = min(in_len - 1, p // st)
                row = tuple((q, p - q * st) for q in range(lo, hi + 1))
                if not row:
                    raise ValueError(f"dec{j}: output frame {p} has no contributors")
                taps.append(row)
                need_in.update(q for q, _ in row)
            skip_level = L - j + 1 if j >= 2 else 0
            enc_needs[skip_level or L].update(need_in)
            rev_steps.append(_DecoderStep(layer=j, inputs=tuple(sorted(need_in)),
                                          out_frames=out_frames, taps=tuple(taps),
                                          skip_level=skip_level))
            needed = need_in
        self.steps: list[_DecoderStep] = list(reversed(rev_steps))

        # ring capacities: newest frame of level l sits delta[l] behind the
        # push; capacity covers the oldest slot any consumer asks for
        self.capacity = [0] * (L + 1)
        for l in range(L + 1):
            lookbacks = [self.delta[l]]
            if l < L:
                lookbacks.append(self.delta[l + 1])  # oldest tap of level l+1
            if l >= 1:
                lookbacks.append((t0 - 1) - min(enc_needs[l]) * self.lattice[l])
            self.capacity[l] = max(lookbacks) - self.delta[l] + 1


class _Ring:
    """Fixed-capacity per-layer frame cache keyed by absolute slot index."""

    def __init__(self, capacity: int, shape: tuple, dtype):
        self.capacity = capacity
        self.buf = np.zeros((capacity,) + shape, dtype=dtype)
        self.newest = -1

    def append(self, slot: int, frame: np.ndarray) -> None:
        self.buf[slot % self.capacity] = frame
        self.newest = slot

    def get(self, slot: int) -> np.ndarray:
        if slot > self.newest or slot <= self.newest - self.capacity:
            raise KeyError(f"slot {slot} not cached (newest {self.newest}, "
                           f"capacity {self.capacity})")
        return self.buf[slot % self.capacity]


class StreamState:
    """Mutable per-stream state: frame queues, counters, op tallies.

    Exclusively owned by one stream; feed frames in temporal order through
    :func:`stream_push`.
    """

    def __init__(self, cfg: UNetConfig, weights: WeightSet):
        validate_weights(cfg, weights)
        self.cfg = cfg
        self.weights = weights
        self.plan = StreamPlan(cfg)
        dtype = weights.dtype
        self.rings = [_Ring(self.plan.capacity[0], (FEATURE_CHANNELS, cfg.in_bins), dtype)]
        for l, spec in enumerate(cfg.encoder):
            self.rings.append(_Ring(self.plan.capacity[l + 1],
                                    (spec.out_ch, self.plan.enc_F[l + 1]), dtype))
        self.frames_ingested = 0
        self.emitted_count = 0
        self.op_counter = {name: 0 for name in cfg.layer_names()}
        # per decoder step, per output frame: (first input row, rows, weight view)
        self.dec_taps = [_pack_decoder(step, weights[f"dec{step.layer}.weight"],
                                       cfg.decoder[step.layer - 1].stride_t)
                         for step in self.plan.steps]

    def queue_depths(self):
        """Logical stride-phase queue count per encoder depth."""
        return [required_queues(self.cfg, d) for d in range(1, self.cfg.depth + 1)]


def _pack_decoder(step: _DecoderStep, w: np.ndarray, st: int) -> list:
    """Per output frame of `step`, its contributor rows and a zero-copy
    (O, n*C, kf, 1) weight view for :func:`conv_transposed_valid`.

    The layer's weights are packed once as (kf, O, kt*C), with the temporal
    taps grouped by residue mod `st` and descending within a group. An
    output frame's taps share one residue and, ordered by ascending input
    frame, are consecutive in that order, so each frame's weight is a slice.
    """
    O, C, kf, kt = w.shape
    order = [tap for r in range(st) for tap in reversed(range(r, kt, st))]
    packed = w[:, :, :, order].transpose(2, 0, 3, 1).reshape(kf, O, kt * C)
    first_row = {q: i for i, q in enumerate(step.inputs)}
    out = []
    for row in step.taps:
        pos, n = order.index(row[0][1]), len(row)
        view = packed[:, :, pos * C : (pos + n) * C].transpose(1, 2, 0)[:, :, :, None]
        out.append((first_row[row[0][0]], n, view))
    return out


def _encoder_step(state: StreamState, level: int, slot: int) -> np.ndarray:
    """Compute encoder `level`'s frame at absolute slot index `slot`."""
    spec = state.cfg.encoder[level - 1]
    lattice = state.plan.lattice[level - 1]
    src = state.rings[level - 1]
    x = np.stack([src.get(slot + i * lattice) for i in range(spec.kernel_t)], axis=-1)
    y = conv_valid(x, state.weights[f"enc{level}.weight"], state.weights[f"enc{level}.bias"],
                   spec.stride_f, 1, state.op_counter, f"enc{level}")
    return leaky(y[:, :, 0], state.cfg.activation_slope)


def _decode(state: StreamState, push_index: int):
    cfg = state.cfg
    plan = state.plan
    w_start = push_index - (cfg.in_frames - 1)
    L = cfg.depth

    frames = np.stack([state.rings[L].get(w_start + q * plan.lattice[L])
                       for q in plan.steps[0].inputs])
    for step, taps in zip(plan.steps, state.dec_taps):
        spec = cfg.decoder[step.layer - 1]
        name = f"dec{step.layer}"
        b = state.weights[f"{name}.bias"]
        if step.skip_level:
            ring, lattice = state.rings[step.skip_level], plan.lattice[step.skip_level]
            skips = np.stack([ring.get(w_start + q * lattice) for q in step.inputs])
            frames = np.concatenate([frames, skips], axis=1)
        _, C, F = frames.shape
        out = np.empty((len(taps), spec.out_ch, (F - 1) * spec.stride_f + spec.kernel_f),
                       dtype=frames.dtype)
        for k, (a, n, w) in enumerate(taps):
            x = frames[a : a + n].reshape(n * C, F, 1)
            y = conv_transposed_valid(x, w, b, spec.stride_f, 1, state.op_counter, name)
            out[k] = leaky(y[:, :, 0], cfg.activation_slope)
        frames = out

    final = frames[0]  # the last step computes only the target frame
    hw = state.weights["head.weight"]
    logits = hw.reshape(HEAD_CHANNELS, -1) @ final
    logits += state.weights["head.bias"][:, None]
    state.op_counter["head"] += HEAD_CHANNELS * hw.shape[1] * cfg.in_bins
    return logits


def stream_push(frame: np.ndarray, state: StreamState):
    """Ingest one feature frame (FEATURE_CHANNELS, bins); returns the (10, bins)
    head frame for frame n - lookahead, in the weights' dtype, once the
    first full analysis window exists, else None."""
    cfg = state.cfg
    plan = state.plan
    frame = np.asarray(frame, dtype=state.weights.dtype)
    if frame.shape != (FEATURE_CHANNELS, cfg.in_bins):
        raise ValueError(f"expected frame shape ({FEATURE_CHANNELS}, {cfg.in_bins}), "
                         f"got {frame.shape}")
    n = state.frames_ingested
    state.rings[0].append(n, frame)
    for level in range(1, cfg.depth + 1):
        if n >= plan.delta[level]:
            out = _encoder_step(state, level, n - plan.delta[level])
            state.rings[level].append(n - plan.delta[level], out)
    state.frames_ingested += 1

    if n < plan.warmup - 1:
        return None
    head = _decode(state, n)
    state.emitted_count += 1
    return head
