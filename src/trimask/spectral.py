"""STFT/iSTFT front end, bin trimming, and input feature extraction.

The analysis/synthesis window is a periodic Hann window for both presets.
Inversion uses weighted overlap-add with per-sample normalization by the
summed squared window, which reconstructs interior samples exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .types import (FEATURE_CHANNELS, ComplexSpectrogram, SignalBuffer, as_samples, bins_of,
                    check_fields, spectrogram_like)

EPS_MAG = 1e-7  # magnitude floor before the log


@dataclass(frozen=True)
class StftConfig:
    window_size: int
    hop_size: int
    discard_low_bins: int = 0

    def __post_init__(self):
        check_fields(self, int, "window_size", "hop_size", "discard_low_bins")
        if min(self.window_size, self.hop_size) < 1 or self.window_size % self.hop_size:
            raise ValueError("window_size and hop_size must be >= 1, and hop_size must "
                             "divide window_size")
        if not 0 <= self.discard_low_bins < self.bin_count:
            raise ValueError(f"discard_low_bins must be in [0, {self.bin_count})")

    @property
    def bin_count(self) -> int:
        """Untrimmed one-sided bin count."""
        return self.window_size // 2 + 1

    @cached_property
    def window(self) -> np.ndarray:
        """The periodic Hann window, read-only, as scipy's get_window("hann", N) builds it."""
        n = self.window_size
        win = np.ones(1) if n == 1 else 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1))[:n]
        win.flags.writeable = False
        return win

    @cached_property
    def demodulation(self) -> np.ndarray:
        """exp(-2*pi*i * ((hop_size * t * f) mod window_size) / window_size), read-only,
        for every physical bin f and t below window_size // hop_size, the period in frames."""
        n, hop = self.window_size, self.hop_size
        cycles = hop * np.arange(n // hop)[:, None] * np.arange(self.bin_count) % n
        table = np.exp(-2j * np.pi / n * cycles)
        table.flags.writeable = False
        return table

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_size:
            return 0
        return (n_samples - self.window_size) // self.hop_size + 1


# Shipped presets, each with an FFT the length of its window: real-time
# (512-point, 4 lowest bins discarded) and non-real-time (1024-point).
RT_PRESET = StftConfig(window_size=512, hop_size=128, discard_low_bins=4)
NRT_PRESET = StftConfig(window_size=1024, hop_size=256, discard_low_bins=0)

PRESETS = {"rt": RT_PRESET, "nrt": NRT_PRESET}


def stft(signal, cfg: StftConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform with a periodic Hann analysis window.

    Frames start every ``hop_size`` samples; only complete windows are
    analyzed (no padding). Returns the untrimmed one-sided spectrogram.
    """
    x = as_samples(signal)
    if len(x) < cfg.window_size:
        raise ValueError(
            f"insufficient samples: need at least {cfg.window_size}, got {len(x)}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_size)[:: cfg.hop_size]
    frames = frames * cfg.window
    bins = np.fft.rfft(frames, axis=1)
    return ComplexSpectrogram(bins=bins)


class OverlapAdd:
    """What a streamed inverse STFT carries between calls: the unnormalised
    sums (leading axes as in the first call) and the one squared-window sum
    of the ``window_size - hop_size`` samples that later frames still add to."""

    def __init__(self, cfg: StftConfig):
        overlap = cfg.window_size - cfg.hop_size
        self.y = np.zeros(overlap)
        self.norm = np.zeros(overlap)

    def finish(self) -> np.ndarray:
        """The stream's last ``window_size - hop_size`` samples, normalised."""
        return _normalise(self.y.copy(), self.norm)


def _normalise(y: np.ndarray, norm: np.ndarray) -> np.ndarray:
    nonzero = norm > 1e-10
    y[..., nonzero] /= norm[nonzero]
    y[..., ~nonzero] = 0.0
    return y


def istft(spec, cfg: StftConfig, length: int | None = None, carry: OverlapAdd | None = None):
    """Inverse STFT by weighted overlap-add.

    The synthesis window equals the analysis window; each output sample is
    normalized by the local sum of squared windows, which makes
    ``istft(stft(x))`` exact wherever the window coverage is nonzero.
    Trimmed spectra must be zero-padded back first via
    :func:`restore_low_bins`. A ComplexSpectrogram gives a SignalBuffer, a
    ``(..., T, F)`` stack of grids a ``(..., samples)`` array.

    With ``carry``, the frames continue a stream: they add onto the overlap
    that ``carry`` holds from earlier calls, only the ``hop_size`` samples
    per frame that no later frame reaches are returned, and the rest stays
    in ``carry`` until :meth:`OverlapAdd.finish`. Each sample then adds its
    frames in the same order as one whole-signal call, so the two agree bit
    for bit. Without ``carry`` the call is one whole stream: a fresh
    :class:`OverlapAdd` ended by its ``finish()``, then cut or zero-padded
    to ``length`` if one is given. ``length`` with ``carry`` is a
    ValueError, since a streamed call returns only its finished samples.
    """
    if length is not None and carry is not None:
        raise ValueError("length applies to a whole-signal call, not to one with carry")
    bins = bins_of(spec)
    *lead, n_frames, n_bins = bins.shape
    if n_bins != cfg.bin_count:
        raise ValueError(
            f"shape mismatch: spectrogram has {n_bins} bins, "
            f"config expects {cfg.bin_count} (restore trimmed bins first)"
        )
    hop, reach = cfg.hop_size, cfg.window_size // cfg.hop_size
    frames = np.fft.irfft(bins, n=cfg.window_size, axis=-1)
    frames *= cfg.window  # in place: one (..., T, N) array, not two

    ola = carry if carry is not None else OverlapAdd(cfg)
    done = n_frames * hop  # samples no later frame reaches
    y = np.zeros((*lead, len(ola.norm) + done))
    y[..., : len(ola.norm)] = ola.y
    norm = np.concatenate([ola.norm, np.zeros(done)])
    # hop r of frame t lands on hop block t + r; descending r adds each
    # sample's frames oldest first
    y_blocks, norm_blocks = y.reshape(*lead, -1, hop), norm.reshape(-1, hop)
    frames, wsq = frames.reshape(*lead, n_frames, reach, hop), cfg.window * cfg.window
    for r in range(reach - 1, -1, -1):
        y_blocks[..., r : r + n_frames, :] += frames[..., r, :]
        norm_blocks[r : r + n_frames] += wsq[r * hop : (r + 1) * hop]
    ola.y, ola.norm = y[..., done:].copy(), norm[done:].copy()
    y = _normalise(y[..., :done], norm[:done])
    if carry is None:
        y = np.concatenate([y, ola.finish()], axis=-1)
        if length is not None:
            pad = np.zeros((*lead, max(length - y.shape[-1], 0)))
            y = np.concatenate([y[..., :length], pad], axis=-1)
    return SignalBuffer(samples=y) if isinstance(spec, ComplexSpectrogram) else y


def trim_low_bins(spec: ComplexSpectrogram, n: int) -> ComplexSpectrogram:
    """Discard the ``n`` lowest frequency bins (e.g. 257 -> 253 for n=4)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n >= spec.bin_count:
        raise ValueError(f"cannot trim {n} bins from a {spec.bin_count}-bin spectrogram")
    return ComplexSpectrogram(bins=spec.bins[:, n:].copy())


def restore_low_bins(spec, n: int):
    """Zero-fill ``n`` low bins, undoing the shape change of trim_low_bins,
    on a ComplexSpectrogram or along the last axis of a (..., T, F) array."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    bins = bins_of(spec)
    pad = np.zeros((*bins.shape[:-1], n), dtype=bins.dtype)
    return spectrogram_like(spec, np.concatenate([pad, bins], axis=-1))


def extract_features(spec: ComplexSpectrogram, cfg: StftConfig, first_frame: int = 0,
                     prev_frame: np.ndarray | None = None) -> np.ndarray:
    """The (5, T, F) float64 input features of a (trimmed) spectrogram.

    Bin ``f`` of an ``n``-bin grid is physical bin ``cfg.bin_count - n + f``
    (trimming drops only the lowest bins); a wider grid is a ValueError.
    Phase is read as unit phasors u = X/|X| (1 where X = 0). ch0 is
    log(|X| + eps); ch1/ch2 are u times its frame's row of
    ``cfg.demodulation`` (zero bins keep 1 + 0j); ch3 and ch4 are the angles,
    in (-pi, pi], of u times the conjugate of the bin below and of the frame
    before (first column and first row zero). A block that continues a stream
    passes its first frame's stream index and the complex frame before it;
    its features then equal those rows of a whole-signal call bit for bit.
    """
    n_frames, n_bins = spec.bins.shape
    if n_bins > cfg.bin_count:
        raise ValueError(f"spectrogram has {n_bins} bins, more than the {cfg.bin_count} "
                         f"of its STFT")
    mag = np.abs(spec.bins)
    u = np.divide(spec.bins, mag, out=np.ones_like(spec.bins), where=mag > 0.0)
    feats = np.empty((FEATURE_CHANNELS, n_frames, n_bins))
    np.log(mag + EPS_MAG, out=feats[0])
    feats[3, :, 0] = feats[4, :1] = 0.0
    pairs = [(feats[3, :, 1:], u[:, 1:], u[:, :-1]), (feats[4, 1:], u[1:], u[:-1])]
    if prev_frame is not None and n_frames:
        prev_mag = np.abs(prev_frame)
        pairs.append((feats[4, 0], u[0], np.divide(prev_frame, prev_mag, where=prev_mag > 0.0,
                                                   out=np.ones_like(prev_frame))))
    # np.multiply, not `*`: `*` may reuse a large temporary operand with the
    # operands swapped, and a complex product rounds differently that way
    for out, a, b in pairs:
        out[...] = np.angle(np.multiply(a, np.conj(b)))
    feats[3:][feats[3:] == -np.pi] = np.pi  # a real bin's sign flip is -1 - 0j, at angle -pi

    table = cfg.demodulation[:, cfg.bin_count - n_bins:]
    np.multiply(u, table[(first_frame + np.arange(n_frames)) % len(table)], out=u)
    u[mag == 0.0] = 1.0
    feats[1], feats[2] = u.real, u.imag
    return feats
