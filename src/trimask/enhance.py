"""End-to-end enhancement pipeline, run as one bounded-memory block pipeline.

stft -> trim -> features -> per-frame mask logits (streaming or windowed
backend) -> mask assembly of both pairs, in closed form, into rows 0 and 2
of the untrimmed (3, T, F) synthesis stack -> quadrangle decomposition in
place -> istft of the stack -> remix (optionally compressed).
:class:`StreamingEnhancer` runs these stages on whatever samples each call
brings, vectorised over the call's frames, and carries only what later
samples need: the analysis tail, the last complex frame, the backend's
history, the frames still awaiting their heads, the one overlap-add carry
of the three components and the compressor's follower.
:func:`enhance` feeds a whole signal through it in fixed blocks, so its
memory beyond the result does not grow with the input.

Frames outside the backend's coverage (the first window minus lookahead,
and the trailing lookahead) receive identity masks: direct passes the
mixture through, noise is zero. Both backends compute the same
mathematical object, so their outputs agree to within accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .dynamics import DrcConfig, DrcState, compress
from .masking import assemble_masks, check_reverb_gain_db, quadrangle_decompose, remix
from .opcount import count_ops  # unused, but perfbench/tracer.py's install looks it up
from .streaming import StreamState, stream_push
from .types import FEATURE_CHANNELS, ComplexSpectrogram, SignalBuffer, as_samples
from .unet import (IDENTITY_HEAD, UNetConfig, WeightSet, features_to_tensor, split_head,
                   unet_forward, validate_weights)
from .spectral import StftConfig

MODES = ("causal-stream", "noncausal-window")

# Frames per block when enhance() feeds a whole signal through the engine.
# On 20 s of rt audio with the network stubbed out, blocks of 32, 64, 128,
# 256 and 512 frames took a median 0.37, 0.32, 0.32, 0.34 and 0.37 s, and
# the tracemalloc peak beyond the 10 MB result was 4, 6, 11, 22 and 43 MB.
# 128 keeps a 1 s clip in one block.
_BLOCK_FRAMES = 128


@dataclass
class EnhanceResult:
    direct: SignalBuffer
    reverb: SignalBuffer
    noise: SignalBuffer
    remixed: SignalBuffer
    frames_total: int
    frames_emitted: int


class EnhancedSamples(NamedTuple):
    """Equal-length sample runs of the four outputs."""
    direct: np.ndarray
    reverb: np.ndarray
    noise: np.ndarray
    remixed: np.ndarray


class StreamingEnhancer:
    """Sample-in/sample-out enhancement of one stream.

    :meth:`process` takes the next samples and returns the output samples
    that no later input can change; :meth:`flush` ends the stream and
    returns the rest. Whatever the chunking, the concatenated outputs have
    the input's length and equal :func:`enhance` of the whole input.
    An output sample is final once the frame starting at or before it has
    its head, i.e. one window plus ``lookahead_frames`` hops after it.

    ``frames_total`` counts the STFT frames ingested and ``frames_emitted``
    those that got network heads.
    """

    def __init__(self, weights: WeightSet, cfg: UNetConfig, stft_cfg: StftConfig,
                 mode: str = "causal-stream", reverb_gain_db: float = -15.0,
                 drc: DrcConfig | None = None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        check_reverb_gain_db(reverb_gain_db)
        # the weights are validated once, before any audio
        if mode == "causal-stream":
            self._state = StreamState(cfg, weights)  # validates them
        else:
            validate_weights(cfg, weights)
            # the last in_frames - 1 feature frames, (C, F, T)
            self._history = np.zeros((FEATURE_CHANNELS, cfg.in_bins, 0), dtype=weights.dtype)
        bins = stft_cfg.bin_count - stft_cfg.discard_low_bins
        if cfg.in_bins != bins:
            raise ValueError(f"config expects {cfg.in_bins} bins, the STFT gives {bins}")
        self.weights, self.cfg, self.stft_cfg, self.mode = weights, cfg, stft_cfg, mode
        self.reverb_gain_db, self.drc = reverb_gain_db, drc
        self.frames_total = 0
        self.frames_emitted = 0
        self._flushed = False
        self._buf = np.zeros(0)  # input from the first sample of frame `frames_total`
        self._prev_frame = None
        self._pending = np.zeros((0, bins), dtype=complex)  # frames awaiting heads
        self._ola = spectral.OverlapAdd(stft_cfg)
        self._drc_state = DrcState()

    def process(self, samples) -> EnhancedSamples:
        return self._advance(samples, final=False)

    def flush(self) -> EnhancedSamples:
        return self._advance(np.zeros(0), final=True)

    def _advance(self, samples, final: bool) -> EnhancedSamples:
        if self._flushed:
            raise ValueError("the stream was already flushed")
        x = as_samples(samples)
        stft_cfg, la = self.stft_cfg, self.cfg.lookahead_frames
        hop, n_trim = stft_cfg.hop_size, stft_cfg.discard_low_bins
        buf = np.concatenate([self._buf, x]) if len(self._buf) else x
        n0 = self.frames_total
        n1 = n0 + stft_cfg.frame_count(len(buf))
        if final:
            self._flushed = True
            if n1 == 0:
                raise ValueError(f"insufficient samples: need at least "
                                 f"{stft_cfg.window_size}, got {len(buf)}")
        elif n1 == n0:
            self._buf = buf.copy()  # buf may be the caller's array
            return EnhancedSamples(*[np.zeros(0)] * 4)
        self._buf = buf[(n1 - n0) * hop:].copy()

        # frames r0..r1 finish in this call: those whose heads are due, and
        # at the end the rest; frames the backend never emits keep identity
        r0, r1 = max(n0 - la, 0), (n1 if final else max(n1 - la, 0))
        grid = np.tile(IDENTITY_HEAD[:, None, None], (1, r1 - r0, self.cfg.in_bins))
        pending = self._pending
        if n1 > n0:
            spec = spectral.trim_low_bins(spectral.stft(buf, stft_cfg), n_trim)
            feats = spectral.extract_features(spec, stft_cfg, n0, self._prev_frame)
            self._prev_frame = spec.bins[-1].copy()
            self.frames_total = n1
            self._run_backend(feats, n0, grid, r0 + la)
            pending = np.concatenate([pending, spec.bins]) if len(pending) else spec.bins
        self._pending = pending[r1 - r0:].copy()
        if final:  # no frame follows: free the backend before the mask stage
            self._state = self._history = None

        parts = np.zeros((3, 0))
        if r1 > r0:
            # the (3, T, F) synthesis stack: its low bins are the trimmed
            # zeros, both pairs' masks go straight into rows 0 and 2, and
            # the decomposition turns them into the components in place
            stack = np.empty((3, r1 - r0, stft_cfg.bin_count), dtype=complex)
            stack[..., :n_trim] = 0.0
            assemble_masks(split_head(grid), out=stack[::2, :, n_trim:])
            del grid  # freed before the stacked inverse FFT
            quadrangle_decompose(ComplexSpectrogram(pending[: r1 - r0]), stack[..., n_trim:])
            parts = spectral.istft(stack, stft_cfg, carry=self._ola)
        if final:  # the samples after the last frame's overlap are zeros
            pad = np.zeros((3, len(self._buf) - (stft_cfg.window_size - hop)))
            parts = np.concatenate([parts, self._ola.finish(), pad], axis=-1)

        d, r, n = parts
        mixed = remix(d, r, self.reverb_gain_db)
        if self.drc is not None:
            mixed = compress(mixed, self.drc, self._drc_state)
        return EnhancedSamples(d, r, n, mixed.samples)

    def _run_backend(self, feats, n0: int, grid: np.ndarray, first: int) -> None:
        """Push `feats`, stream frames n0.., through the backend; the head
        emitted at ingest of frame t goes to `grid[:, t - first]`."""
        cfg = self.cfg
        t0 = cfg.in_frames
        n1 = n0 + feats.shape[1]
        if self.mode == "causal-stream":
            frames = feats.transpose(0, 2, 1)  # (C, F, T)
            for t in range(n0, n1):
                head = stream_push(frames[:, :, t - n0], self._state)
                if head is not None:
                    grid[:, t - first] = head
                    self.frames_emitted += 1
            return
        # windowed: the window of the frame emitted at ingest of t ends at t
        tensor = np.concatenate([self._history,
                                 features_to_tensor(feats, cfg, self.weights.dtype)], axis=2)
        base = n1 - tensor.shape[2]  # stream index of the tensor's first frame
        for t in range(max(n0, t0 - 1), n1):
            window = tensor[:, :, t - (t0 - 1) - base : t + 1 - base]
            grid[:, t - first] = unet_forward(window, self.weights, cfg)[:, :, cfg.target_index]
            self.frames_emitted += 1
        self._history = tensor[:, :, max(tensor.shape[2] - (t0 - 1), 0):].copy()


def enhance(signal, weights: WeightSet, cfg: UNetConfig, stft_cfg: StftConfig,
            mode: str = "causal-stream", reverb_gain_db: float = -15.0,
            drc: DrcConfig | None = None) -> EnhanceResult:
    """Separate a 16 kHz mixture into direct/reverb/noise estimates and a remix.

    The three component estimates always sum to the engine's front-end round
    trip of the input, independent of the weights.
    """
    x = as_samples(signal)
    engine = StreamingEnhancer(weights, cfg, stft_cfg, mode, reverb_gain_db, drc)
    # the last block ends the stream in the same call, so that its frames
    # awaiting heads share its mask stage
    blocks = np.split(x, range(_BLOCK_FRAMES * stft_cfg.hop_size, len(x),
                               _BLOCK_FRAMES * stft_cfg.hop_size))
    out = None
    pos = 0
    for i, block in enumerate(blocks):
        part = engine._advance(block, final=i == len(blocks) - 1)
        if out is None:  # allocated after the first mask stage, not on its peak
            out = np.empty((4, len(x)))
        out[:, pos : pos + len(part.direct)] = part
        pos += len(part.direct)
    return EnhanceResult(*(SignalBuffer(samples=row) for row in out),
                         frames_total=engine.frames_total,
                         frames_emitted=engine.frames_emitted)


def oracle_reconstruct(truth, stft_cfg: StftConfig):
    """Reconstruct a simulated mixture's components through analytically
    fitted masks (untrimmed spectra); exactness of the mask algebra makes
    this a near-perfect decomposition."""
    from .masking import oracle_fit

    X = spectral.stft(truth.x, stft_cfg).bins
    stack = np.empty((3, *X.shape), dtype=complex)
    for row, y in zip(stack[::2], (truth.y_d, truth.y_n)):
        assemble_masks(oracle_fit(X, spectral.stft(y, stft_cfg)), out=row)
    quadrangle_decompose(X, stack)
    return tuple(map(SignalBuffer, spectral.istft(stack, stft_cfg, length=len(truth.x))))
