"""Core value types shared across the engine."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
FEATURE_CHANNELS = 5  # channels of a FeatureStack and of the U-Net input


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
    fields are not each of `kind`: for int an integer that is not a bool,
    for float a finite real number. With `arity`, each field is instead a
    tuple of `arity` such values (-1: of any number of them)."""
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
    # exact built-in types first: the numbers ABC checks below are slow
    if type(value) is int:
        return True
    if type(value) is float:
        return kind is float and math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    # an int is finite, even one too large for np.isfinite
    return isinstance(value, numbers.Integral) or (kind is float and bool(np.isfinite(value)))


@dataclass
class SignalBuffer:
    """Mono time-domain signal at 16 kHz.

    Only finite values are admitted; amplitudes are nominally in [-1, 1]
    but not clipped here.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("signal contains non-finite values")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass
class ComplexSpectrogram:
    """Time-frequency grid of complex values, indexed (t, f).

    ``bin_offset`` records how many low-frequency bins have been discarded,
    so bin ``f`` of this grid corresponds to physical FFT bin
    ``f + bin_offset``.
    """

    bins: np.ndarray
    bin_offset: int = 0

    def __post_init__(self):
        self.bins = np.asarray(self.bins)
        if self.bins.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D (t, f), got shape {self.bins.shape}")
        if not np.iscomplexobj(self.bins):
            self.bins = self.bins.astype(np.complex128)

    @property
    def frame_count(self) -> int:
        return self.bins.shape[0]

    @property
    def bin_count(self) -> int:
        return self.bins.shape[1]


@dataclass
class FeatureStack:
    """Five aligned real-valued T x F feature grids.

    Channels: log-magnitude, demodulated-phase cos, demodulated-phase sin,
    group delay, delta-phase.
    """

    channels: np.ndarray  # (FEATURE_CHANNELS, T, F)

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 3 or self.channels.shape[0] != FEATURE_CHANNELS:
            raise ValueError(f"expected ({FEATURE_CHANNELS}, T, F) feature stack, "
                             f"got {self.channels.shape}")

    @property
    def frame_count(self) -> int:
        return self.channels.shape[1]

    @property
    def bin_count(self) -> int:
        return self.channels.shape[2]
