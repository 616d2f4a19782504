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

:class:`StreamState` compiles the plan once: each encoder level's im2col is a
static strided view of its queue slab with a column buffer; each decoder
step packs its layer's taps into one matrix, of which every output frame's
GEMM operand is a column slice, and owns its input, output and scatter
buffers. A decoder step lays its output out by frequency stride phase
(output bin ``p + k*stride_f`` at phase ``p``, position ``k``) and pads each
frame's GEMM output rows with zeros to the phase width, so each of its
``kf`` taps adds onto one phase as one unit-stride run per frame. A push is
then a fixed run of GEMMs (through ``unet._matmul``, the one multiply tally)
and in-place copies and ufuncs; a decoder step fills its bias, adds its
taps in ascending order and applies the leaky step once over all of its
output frames, then copies each phase back in frequency order into the
next step's input or the head's. It allocates only the head frame it
returns, plus the one numpy iterator buffer of the head's broadcast bias
add. The multiplies are those of ``unet``'s kernels, but OpenBLAS may order
a GEMM's sums differently at other widths, so the stream equals the
windowed kernels within GEMM rounding, not bit for bit: acceptance check C3
pins it at 1e-4 in fp32 and 1e-10 in fp64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .types import FEATURE_CHANNELS
from .unet import UNetConfig, WeightSet, _im2col, _matmul, head, leaky, validate_weights


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
    taps: tuple                # per output frame, ascending: tuple of (in_idx, kernel_tap), or ()
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
                  if inputs else (L - j + 1, 0, 1)  # no input frames: an empty slice
                  for j, inputs, _ in steps]
        self.capacity = [1 + max(old for l, old, _ in reads if l == level)
                         for level in range(L + 1)]
        slices = [slice(self.capacity[l] - 1 - old, self.capacity[l] - new, self.lattice[l])
                  for l, old, new in reads]
        self.slabs = slices[:L]  # encoder layer l+1's kernel_t frames of queue l
        self.steps = [_DecoderStep(*step, level=L - step[0] + 1, read=read)
                      for step, read in zip(steps, slices[L:])]


class _EncoderLevel(NamedTuple):
    """One encoder layer's compiled push: its im2col, GEMM and bias, then
    its queue shifted by one frame and its leaky output written newest."""
    first: int             # the first push (frame index) that reaches the layer
    name: str
    window: np.ndarray     # (C, kf, kt, Fo, 1) im2col view of the lower queue's slab
    cols_in: np.ndarray    # `cols` as (C, kf, kt, Fo, 1), where the window is copied
    cols: np.ndarray       # (C*kf*kt, Fo) GEMM operand
    weight: np.ndarray     # (O, C*kf*kt)
    bias: np.ndarray       # (O, Fo), each row one bias value
    y: np.ndarray          # (O, Fo) GEMM output
    scratch: np.ndarray    # (O, Fo) for the leaky step
    queue: tuple           # its queue's _advance views


class _DecoderLayer(NamedTuple):
    """One decoder step's compiled push over all of its output frames."""
    name: str
    skip: np.ndarray       # the input buffer's skip (dec1: bottleneck) channels
    read: np.ndarray       # the queue frames that fill them
    gemms: tuple           # per output frame: (taps operand, input rows, output rows)
    y: np.ndarray          # (frames, sf, O, pf): output bin p + k*sf at [:, p, :, k]
    bias: np.ndarray       # (O, 1)
    scatter: list          # (dst, src) unit-stride runs of y and the GEMM output, one per tap
    gather: list           # (dst, src) per phase: the leaky y into the next step's input
                           # channels, or the head's, in frequency order
    scratch: np.ndarray    # y-shaped, for the leaky step


class StreamState:
    """Mutable per-stream state: frame queues, counters, op tallies.

    Exclusively owned by one stream; feed frames in temporal order through
    :func:`stream_push`. Construction compiles the push: every view,
    operand and buffer it touches is built here once.
    """

    def __init__(self, cfg: UNetConfig, weights: WeightSet):
        validate_weights(cfg, weights)
        self.cfg = cfg
        self.weights = weights
        self.plan = plan = StreamPlan(cfg)
        dtype = weights.dtype
        # per level, its last `capacity` frames as (capacity, C, F), newest last;
        # level l's width is layer l+1's input width (the bottleneck's is dec1's)
        self.queues = [np.zeros((cap, ch, f), dtype=dtype) for cap, ch, (f, _)
                       in zip(plan.capacity, cfg.in_channels, cfg.encoder_shapes())]
        self.frames_ingested = 0
        self.op_counter = {}
        self.input_queue = _advance(self.queues[0])
        self.encoder = [_compile_encoder(self, level) for level in range(1, cfg.depth + 1)]
        # each decoder step's input buffer (its frames, channels, bins), then the head's
        dec_in = [np.empty((len(step.inputs), ch, f), dtype=dtype) for step, ch, (f, _)
                  in zip(plan.steps, cfg.in_channels[cfg.depth:], cfg.decoder_shapes())]
        self.head_in = np.empty((cfg.decoder_channels[-1], cfg.in_bins), dtype=dtype)
        outs = [x[:, :spec.out_ch] for x, spec in zip(dec_in[1:], cfg.decoder)]
        outs.append(self.head_in[None])
        self.decoder = [_compile_decoder(self, step, x, out)
                        for step, x, out in zip(plan.steps, dec_in, outs)]


def _advance(queue: np.ndarray) -> tuple:
    """(dst, src, newest) views of a queue: assigning src to dst moves every
    frame one older, and newest then takes the new frame. dst and src are
    flat, so their overlapping copy runs in place without a temporary."""
    flat = queue.reshape(-1)
    return flat[: flat.size - queue[0].size], flat[queue[0].size :], queue[-1]


def _compile_encoder(state: StreamState, level: int) -> _EncoderLevel:
    spec = state.cfg.encoder[level - 1]
    w = state.weights[f"enc{level}.weight"]
    O, C, kf, kt = w.shape
    below = state.queues[level - 1][state.plan.slabs[level - 1]].transpose(1, 2, 0)
    window = _im2col(below, kf, kt, spec.stride_f, 1)
    cols = np.empty((C * kf * kt, window.shape[3]), dtype=w.dtype)
    y = np.empty((O, window.shape[3]), dtype=w.dtype)
    # the bias is laid out as y, so that adding it is a plain contiguous loop
    bias = np.repeat(state.weights[f"enc{level}.bias"][:, None], y.shape[1], axis=1)
    return _EncoderLevel(state.plan.delta[level], f"enc{level}", window,
                         cols.reshape(window.shape), cols, w.reshape(O, -1), bias, y,
                         np.empty_like(y), _advance(state.queues[level]))


def _compile_decoder(state: StreamState, step: _DecoderStep, x: np.ndarray,
                     out: np.ndarray) -> _DecoderLayer:
    """Step `step` reading input buffer x (frames, C, F) and writing its
    leaky output frames to `out`. Its taps are packed once into one
    (kf*O, kt*C) matrix, grouped by residue mod stride_t and descending in
    each group, so every output frame's taps are a column slice of it."""
    name = f"dec{step.layer}"
    spec = state.cfg.decoder[step.layer - 1]
    w = state.weights[f"{name}.weight"]
    O, C, kf, kt = w.shape
    F = x.shape[2]
    order = sorted(range(kt), key=lambda tap: (tap % spec.stride_t, -tap))
    packed = np.ascontiguousarray(w[:, :, :, order].transpose(2, 0, 3, 1)).reshape(kf * O, -1)
    # output bin p + k*sf sits at y[:, p, :, k]: tap i lands on phase i % sf,
    # shifted by i // sf, so it adds as one unit-stride run per frame, and the
    # GEMM rows are zero-padded to the phase width so that the run's pitch is
    # the same in source and destination; where a run spills across rows, it
    # adds only the padding's +0.0
    sf, frames = spec.stride_f, len(step.taps)
    pf = F - 1 + -(-kf // sf)
    contrib = np.zeros((frames, kf, O, pf), dtype=w.dtype)
    gemms = []
    for row, c in zip(step.taps, contrib):
        if not row:  # no input reaches this frame: its contribution rows stay zero
            continue
        first, n = order.index(row[0][1]) * C, len(row) * C
        a = row[0][0] - step.inputs[0]
        gemms.append((packed[:, first : first + n], x[a : a + len(row)].reshape(n, F),
                      c.reshape(kf * O, pf)[:, :F]))
    y = np.empty((frames, sf, O, pf), dtype=w.dtype)
    runs, taps = y.reshape(frames, sf, O * pf), contrib.reshape(frames, kf, O * pf)
    scatter = [(runs[:, i % sf, i // sf :], taps[:, i, : O * pf - i // sf]) for i in range(kf)]
    gather = [(out[..., p::sf], y[:, p, :, : len(range(p, out.shape[-1], sf))])
              for p in range(sf)]
    skip = x[:, C - state.queues[step.level].shape[1]:]
    return _DecoderLayer(name, skip, state.queues[step.level][step.read], tuple(gemms), y,
                         state.weights[f"{name}.bias"][:, None], scatter, gather,
                         np.empty_like(y))


def stream_push(frame: np.ndarray, state: StreamState):
    """Ingest one feature frame (FEATURE_CHANNELS, bins); returns the (10, bins)
    head frame for frame n - lookahead, in the weights' dtype, once the
    first full analysis window exists, else None."""
    frame = np.asarray(frame)
    if frame.shape != (FEATURE_CHANNELS, state.cfg.in_bins):
        raise ValueError(f"expected frame shape ({FEATURE_CHANNELS}, {state.cfg.in_bins}), "
                         f"got {frame.shape}")
    n = state.frames_ingested
    counter = state.op_counter
    dst, src, newest = state.input_queue
    dst[...] = src
    newest[...] = frame
    for enc in state.encoder:
        if n < enc.first:
            break
        enc.cols_in[...] = enc.window
        _matmul(enc.weight, enc.cols, counter, enc.name, out=enc.y)
        np.add(enc.y, enc.bias, out=enc.y)
        dst, src, newest = enc.queue
        dst[...] = src
        leaky(enc.y, out=newest, scratch=enc.scratch)
    state.frames_ingested += 1

    if n < state.cfg.in_frames - 1:
        return None
    for dec in state.decoder:
        dec.skip[...] = dec.read
        for a, x, c in dec.gemms:
            _matmul(a, x, counter, dec.name, out=c)
        dec.y[...] = dec.bias
        for dst, src in dec.scatter:
            dst += src
        leaky(dec.y, out=dec.y, scratch=dec.scratch)
        for dst, src in dec.gather:
            dst[...] = src
    # the last step computes only the target frame
    return head(state.head_in, state.weights, counter)
