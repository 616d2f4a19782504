"""Incremental (streaming) U-Net inference with per-layer frame queues.

The emitted value at push n is defined as the whole-window forward pass over
the analysis window ending at frame n, read out at the target position
(window end minus lookahead). Because every tensor's frame lattice is pinned
to the window end, each encoder layer gains exactly one new frame per push
(at a fixed offset behind the newest input frame) and all older frames are
reused from per-level queues of fixed lookback. Every read of a queue sits a
fixed distance behind its newest frame, so the plan stores it as a static
slice and a queue's capacity is 1 + its deepest read. Strided layers
interleave prod(s_l) lattice phases in one queue; required_queues() reports
that phase count.

Decoder transposed-convolution frames near the stream edge have truncated
contributor sets whose values legitimately change as the window advances, so
the (few) frames feeding the single emitted output are recomputed each push;
the skip-connection inputs they consume come from the encoder queues and are
never recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import FEATURE_CHANNELS
from .unet import (UNetConfig, WeightSet, conv_transposed_valid, conv_valid, head, leaky,
                   validate_weights)


def required_queues(cfg: UNetConfig, depth: int) -> int:
    """Number of stride-phase queues at an encoder depth: prod of temporal
    strides of layers 1..depth."""
    if not (1 <= depth <= cfg.depth):
        raise ValueError(f"depth must be in [1, {cfg.depth}], got {depth}")
    return math.prod(spec.stride_t for spec in cfg.encoder[:depth])


@dataclass(frozen=True)
class _DecoderStep:
    """One decoder layer's per-push work: its output frames' real taps."""
    layer: int                 # 1-based decoder layer
    inputs: tuple              # window indices of the input frames, ascending, contiguous
    taps: tuple                # per output frame, ascending: tuple of (in_idx, kernel_tap)
    level: int                 # encoder level read: the bottleneck for dec1, else the skip
    read: slice                # that level's queue rows holding the frames at `inputs`


class StreamPlan:
    """Static per-config schedule for one push (window coordinates)."""

    def __init__(self, cfg: UNetConfig):
        L = cfg.depth
        t0 = cfg.in_frames

        # encoder geometry
        self.lattice = [1]
        self.delta = [0]  # lookback of each level's newest frame behind the push
        for spec in cfg.encoder:
            self.delta.append(self.delta[-1] + (spec.kernel_t - 1) * self.lattice[-1])
            self.lattice.append(self.lattice[-1] * spec.stride_t)

        # decoder needs, resolved backward from the single target frame
        dec_T = [t for _, t in cfg.decoder_shapes()]
        needed = {cfg.target_index}
        steps = []  # (layer, inputs, taps), ascending layer
        for j in range(L, 0, -1):
            spec = cfg.decoder[j - 1]
            kt, st = spec.kernel_t, spec.stride_t
            taps = []
            for p in sorted(needed):
                lo = max(0, -(-(p - kt + 1) // st))  # ceil
                hi = min(dec_T[j - 1] - 1, p // st)
                if lo > hi:
                    raise ValueError(f"dec{j}: output frame {p} has no contributors")
                taps.append(tuple((q, p - q * st) for q in range(lo, hi + 1)))
            needed = {q for row in taps for q, _ in row}  # contiguous: rows overlap or abut
            steps.insert(0, (j, tuple(sorted(needed)), tuple(taps)))

        # every queue read as (level, oldest, newest) lookback behind the level's
        # newest frame: each encoder slab, then each decoder step's input frames
        def lookback(level, q):
            return (t0 - 1) - q * self.lattice[level] - self.delta[level]

        reads = [(l, (spec.kernel_t - 1) * self.lattice[l], 0)
                 for l, spec in enumerate(cfg.encoder)]
        reads += [(L - j + 1, lookback(L - j + 1, inputs[0]), lookback(L - j + 1, inputs[-1]))
                  for j, inputs, _ in steps]
        self.capacity = [1 + max(old for l, old, _ in reads if l == level)
                         for level in range(L + 1)]
        slices = [slice(self.capacity[l] - 1 - old, self.capacity[l] - new, self.lattice[l])
                  for l, old, new in reads]
        self.slabs = slices[:L]  # encoder layer l+1's kernel_t frames of queue l
        self.steps = [_DecoderStep(*step, level=L - step[0] + 1, read=read)
                      for step, read in zip(steps, slices[L:])]


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
        # per level, its last `capacity` frames as (capacity, C, F), newest last;
        # level l's width is layer l+1's input width (the bottleneck's is dec1's)
        self.queues = [np.zeros((cap, ch, f), dtype=weights.dtype) for cap, ch, (f, _)
                       in zip(self.plan.capacity, cfg.in_channels, cfg.encoder_shapes())]
        self.frames_ingested = 0
        self.op_counter = {}
        # per decoder step, per output frame: (first input row, rows, weight)
        self.dec_taps = [_pack_decoder(step, weights[f"dec{step.layer}.weight"])
                         for step in self.plan.steps]


def _pack_decoder(step: _DecoderStep, w: np.ndarray) -> list:
    """Per output frame of `step`, its contributor rows and its taps'
    weights as (O, n*C, kf, 1) for :func:`conv_transposed_valid`, laid out
    so that the kernel's (kf*O, n*C) GEMM operand is a view."""
    O, C, kf, _ = w.shape
    out = []
    for row in step.taps:
        taps = [tap for _, tap in row]
        packed = np.ascontiguousarray(w[:, :, :, taps].transpose(2, 0, 3, 1))
        view = packed.reshape(kf, O, len(row) * C).transpose(1, 2, 0)[:, :, :, None]
        out.append((row[0][0] - step.inputs[0], len(row), view))
    return out


def _append(queue: np.ndarray, frame: np.ndarray) -> None:
    queue[:-1] = queue[1:]
    queue[-1] = frame


def _encoder_step(state: StreamState, level: int) -> np.ndarray:
    """Compute encoder `level`'s newest frame from its slab of the level below."""
    spec = state.cfg.encoder[level - 1]
    x = state.queues[level - 1][state.plan.slabs[level - 1]].transpose(1, 2, 0)
    y = conv_valid(x, state.weights[f"enc{level}.weight"], state.weights[f"enc{level}.bias"],
                   spec.stride_f, 1, state.op_counter, f"enc{level}")
    return leaky(y[:, :, 0])


def _decode(state: StreamState):
    cfg = state.cfg
    frames = None
    for step, taps in zip(state.plan.steps, state.dec_taps):
        spec = cfg.decoder[step.layer - 1]
        name = f"dec{step.layer}"
        b = state.weights[f"{name}.bias"]
        read = state.queues[step.level][step.read]
        frames = read if frames is None else np.concatenate([frames, read], axis=1)
        _, C, F = frames.shape
        out = np.empty((len(taps), spec.out_ch, (F - 1) * spec.stride_f + spec.kernel_f),
                       dtype=frames.dtype)
        for k, (a, n, w) in enumerate(taps):
            x = frames[a : a + n].reshape(n * C, F, 1)
            y = conv_transposed_valid(x, w, b, spec.stride_f, 1, state.op_counter, name)
            out[k] = leaky(y[:, :, 0])
        frames = out
    # the last step computes only the target frame
    return head(frames[0], state.weights, state.op_counter)


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
    _append(state.queues[0], frame)
    for level in range(1, cfg.depth + 1):
        if n >= plan.delta[level]:
            _append(state.queues[level], _encoder_step(state, level))
    state.frames_ingested += 1

    if n < cfg.in_frames - 1:
        return None
    return _decode(state)
