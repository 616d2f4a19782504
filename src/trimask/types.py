"""Core value types shared across the engine."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
FEATURE_CHANNELS = 5  # channels of extract_features' stack and of the U-Net input
_FLOAT_MAX = sys.float_info.max


def as_samples(signal) -> np.ndarray:
    """Coerce a SignalBuffer or array-like to a 1-D float64 sample array."""
    if isinstance(signal, SignalBuffer):
        return signal.samples
    arr = np.asarray(signal, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected mono 1-D signal, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains non-finite values")
    return arr


def check_fields(config, kind: type, *names: str, arity: int | None = None) -> None:
    """Reject, with a ValueError naming the field, a config whose named
    fields are not each of `kind`: for int a built-in or numpy integer that
    is not a bool, for float such an integer or a built-in or numpy float,
    finite as a float. With `arity`, each field is instead a tuple of
    `arity` such values (-1: of any number of them)."""
    for name in names:
        value = getattr(config, name)
        ok = (_is_a(value, kind) if arity is None else isinstance(value, tuple)
              and arity in (-1, len(value)) and all(_is_a(v, kind) for v in value))
        if not ok:
            want = "an integer" if kind is int else "a finite number"
            if arity is not None:
                want = f"a tuple of {'' if arity == -1 else f'{arity} '}values, each {want}"
            raise ValueError(f"{type(config).__name__} field {name!r} must be {want}, "
                             f"got {value!r}")


def _is_a(value, kind: type) -> bool:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        # finite, and for a float field finite as a float: math.isfinite(10**400) raises
        return kind is int or bool(-_FLOAT_MAX <= value <= _FLOAT_MAX)
    return kind is float and isinstance(value, (float, np.floating)) and math.isfinite(value)


@dataclass
class SignalBuffer:
    """Mono time-domain signal at 16 kHz.

    Only finite values are admitted; amplitudes are nominally in [-1, 1]
    but not clipped here.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = as_samples(self.samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class ComplexSpectrogram:
    """Time-frequency grid of complex values, indexed (t, f).

    A trimmed grid lacks only its lowest bins, so against an STFT of
    ``bin_count`` bins, bin ``f`` of a ``width``-bin grid is physical FFT
    bin ``bin_count - width + f``.
    """

    bins: np.ndarray

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D (t, f), got shape {self.bins.shape}")
        if not np.iscomplexobj(self.bins):
            self.bins = self.bins.astype(np.complex128)

    @property
    def bin_count(self) -> int:
        return self.bins.shape[1]


def bins_of(spec) -> np.ndarray:
    """The complex grid of a ComplexSpectrogram, or an array-like as an array."""
    return spec.bins if isinstance(spec, ComplexSpectrogram) else np.asarray(spec)


def spectrogram_like(spec, bins: np.ndarray):
    """``bins`` as a ComplexSpectrogram if ``spec`` is one, else the array."""
    return ComplexSpectrogram(bins) if isinstance(spec, ComplexSpectrogram) else bins
