"""STFT/iSTFT front end, bin trimming, and input feature extraction.

The analysis/synthesis window is a periodic Hann window for both presets.
Inversion uses weighted overlap-add with per-sample normalization by the
summed squared window, which reconstructs interior samples exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .types import (ComplexSpectrogram, SignalBuffer, as_samples, bins_of, check_fields,
                    spectrogram_like)

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
        if self.discard_low_bins < 0:
            raise ValueError("discard_low_bins must be >= 0")

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


def _wrap_phase(x: np.ndarray) -> np.ndarray:
    # wraps into (-pi, pi]
    return -(np.mod(np.pi - x, 2.0 * np.pi) - np.pi)


def extract_features(spec: ComplexSpectrogram, cfg: StftConfig, first_frame: int = 0,
                     prev_phase: np.ndarray | None = None) -> np.ndarray:
    """The (5, T, F) float64 input feature stack of a (trimmed) spectrogram.

    Trimming drops only the lowest bins, so bin ``f`` of an ``n``-bin grid
    is physical bin ``cfg.bin_count - n + f``; a grid wider than the STFT's
    ``cfg.bin_count`` bins is a ValueError.

    ch0: log(|X| + eps); ch1/ch2: cos/sin of the demodulated phase, where
    demodulation removes the expected per-frame advance
    2*pi*f*hop/window_size of each bin's physical frequency; ch3: group delay
    (wrapped backward difference along f, first column zero); ch4:
    delta-phase (wrapped backward difference along t, first row zero).
    Zero-magnitude bins take phase 0, so their demodulated phase is 0.

    A spectrogram that continues a stream passes the stream index of its
    first frame (``first_frame``, for the demodulation) and the phase of
    the frame before it (``prev_phase``, for ch4's first row); the features
    then equal those rows of a whole-signal call.
    """
    n_frames, n_bins = spec.bins.shape
    if n_bins > cfg.bin_count:
        raise ValueError(f"spectrogram has {n_bins} bins, more than the {cfg.bin_count} "
                         f"of its STFT")
    mag = np.abs(spec.bins)
    phase = np.angle(spec.bins)

    ch0 = np.log(mag + EPS_MAG)

    f_phys = np.arange(cfg.bin_count - n_bins, cfg.bin_count)
    # whole cycles go in integers, t first, so rounding does not grow with t
    t_idx = np.arange(first_frame, first_frame + n_frames) % cfg.window_size
    ramp = 2.0 * np.pi / cfg.window_size * (np.outer(cfg.hop_size * t_idx, f_phys)
                                            % cfg.window_size)
    demod = _wrap_phase(phase - ramp)
    demod = np.where(mag == 0.0, 0.0, demod)
    ch1 = np.cos(demod)
    ch2 = np.sin(demod)

    ch3 = np.zeros_like(phase)
    ch3[:, 1:] = _wrap_phase(phase[:, 1:] - phase[:, :-1])
    ch4 = np.zeros_like(phase)
    ch4[1:, :] = _wrap_phase(phase[1:, :] - phase[:-1, :])
    if prev_phase is not None and n_frames:
        ch4[0] = _wrap_phase(phase[0] - prev_phase)

    return np.stack([ch0, ch1, ch2, ch3, ch4])
