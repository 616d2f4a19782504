"""Desk-scale synthetic mixture generator with exact ground-truth components.

Room responses are parametric: a delayed unit direct impulse plus a seeded
Gaussian tail under an exponential decay reaching -60 dB at t60. The tail
begins a fixed 2 ms (32 samples) after the direct arrival and the decay is
measured from the direct arrival, so a vanishing t60 silences the tail
entirely. Mixtures are built by exact summation, so x == y_d + y_r + y_n
bit for bit.

scipy.signal (filter design, filtering and convolution) is imported by the
functions that call it, on first use, so that ``import trimask`` and the
engine load numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import SAMPLE_RATE, SignalBuffer, as_samples, check_fields

REFLECTION_GAP = 32          # samples between direct arrival and tail start
DECAY_CONSTANT = math.log(1000.0)  # 60 dB amplitude decay over t60
TAIL_GAIN = 0.25
T60_RANGE = (0.1, 1.0)       # seconds, the span sample_scenario draws from


@dataclass(frozen=True)
class RirParams:
    direct_delay: int = 16
    t60: float = 0.3
    tail_length: int = 4000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, int, "direct_delay", "tail_length", "seed")
        check_fields(self, float, "t60")
        if self.t60 <= 0:
            raise ValueError("t60 must be > 0")
        if self.tail_length < 1:
            raise ValueError("tail_length must be >= 1")
        if self.direct_delay < 0:
            raise ValueError("direct_delay must be >= 0")


@dataclass
class MixtureTruth:
    x: SignalBuffer
    y_d: SignalBuffer
    y_r: SignalBuffer
    y_n: SignalBuffer
    snr_db: float
    t60: float | None = None


def tail_envelope(params: RirParams) -> np.ndarray:
    """Deterministic amplitude envelope of the reflection tail, sample i at
    exp(-ln(1000) * (gap + i) / (t60 * fs))."""
    i = np.arange(params.tail_length)
    return np.exp(-DECAY_CONSTANT * (REFLECTION_GAP + i) / (params.t60 * SAMPLE_RATE))


def synth_rir(params: RirParams):
    """Split room response (h_direct, h_reflections) with disjoint supports."""
    length = params.direct_delay + REFLECTION_GAP + params.tail_length
    h_d = np.zeros(length)
    h_d[params.direct_delay] = 1.0
    h_r = np.zeros(length)
    rng = np.random.default_rng(params.seed)
    noise = rng.standard_normal(params.tail_length)
    h_r[params.direct_delay + REFLECTION_GAP :] = TAIL_GAIN * noise * tail_envelope(params)
    return h_d, h_r


def mix(dry, h_d: np.ndarray, h_r: np.ndarray, noise, snr_db: float,
        length: int | None = None) -> MixtureTruth:
    """Convolve the dry source with both response parts and add noise scaled
    to the requested reverberant-source-to-noise ratio.

    ``length`` optionally trims every component before the SNR is realized,
    so the requested ratio holds exactly on the returned signals.
    """
    from scipy.signal import fftconvolve

    d = as_samples(dry)
    y_d = fftconvolve(d, h_d)
    y_r = fftconvolve(d, h_r)
    if length is not None:
        y_d = y_d[:length]
        y_r = y_r[:length]
    n = as_samples(noise)
    if len(n) < len(y_d):
        raise ValueError(f"noise too short: need {len(y_d)} samples, got {len(n)}")
    n = n[: len(y_d)]

    reverberant = y_d + y_r
    sig_energy = float(np.dot(reverberant, reverberant))
    noise_energy = float(np.dot(n, n))
    if sig_energy == 0.0 or noise_energy == 0.0:
        raise ValueError("degenerate SNR: zero-energy source or noise")
    scale = math.sqrt(sig_energy / noise_energy) * 10.0 ** (-snr_db / 20.0)
    y_n = scale * n
    x = y_d + y_r + y_n
    return MixtureTruth(x=SignalBuffer(x), y_d=SignalBuffer(y_d),
                        y_r=SignalBuffer(y_r), y_n=SignalBuffer(y_n), snr_db=snr_db)


@dataclass(frozen=True)
class ScenarioRanges:
    snr_db: tuple = (-10.0, 30.0)
    segment_samples: int = 32000  # 2 s at 16 kHz

    def __post_init__(self):
        check_fields(self, float, "snr_db", arity=2)
        check_fields(self, int, "segment_samples")
        if self.snr_db[0] >= self.snr_db[1]:
            raise ValueError("snr_db must be (low, high) with low < high")
        if self.segment_samples < 1:
            raise ValueError(f"segment_samples must be >= 1, got {self.segment_samples}")


def _dry_source(rng: np.random.Generator, n: int) -> np.ndarray:
    """Band-limited speech-like source: modulated harmonic stack plus a
    little band-passed noise (no content below the 93.75 Hz trim cutoff)."""
    from scipy.signal import butter, lfilter

    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(150.0, 320.0)
    sig = np.zeros(n)
    for h in range(1, 9):
        if h * f0 > 7000.0:
            break
        sig += rng.uniform(0.3, 1.0) / h * np.sin(2 * np.pi * h * f0 * t + rng.uniform(0, 2 * np.pi))
    sig *= 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(1.5, 4.0) * t + rng.uniform(0, 2 * np.pi))
    b, a = butter(4, [150.0 / (SAMPLE_RATE / 2), 6000.0 / (SAMPLE_RATE / 2)], btype="band")
    sig += 0.15 * lfilter(b, a, rng.standard_normal(n))
    rms = float(np.sqrt(np.mean(sig * sig)))
    return 0.1 * sig / max(rms, 1e-12)


def _noise_source(rng: np.random.Generator, n: int) -> np.ndarray:
    from scipy.signal import butter, lfilter

    b, a = butter(4, [150.0 / (SAMPLE_RATE / 2), 6500.0 / (SAMPLE_RATE / 2)], btype="band")
    noise = lfilter(b, a, rng.standard_normal(n))
    rms = float(np.sqrt(np.mean(noise * noise)))
    return noise / max(rms, 1e-12)


def sample_scenario(seed: int, ranges: ScenarioRanges = ScenarioRanges(),
                    snr_db: float | None = None, t60: float | None = None) -> MixtureTruth:
    """Deterministic 2-second mixture draw: random room, SNR, and sources.

    The SNR is drawn from ``ranges.snr_db`` and t60 from ``T60_RANGE``;
    ``snr_db`` / ``t60`` pin those parameters instead of drawing them.
    """
    rng = np.random.default_rng(seed)
    drawn_snr = float(rng.uniform(*ranges.snr_db))
    drawn_t60 = float(rng.uniform(*T60_RANGE))
    snr_db = drawn_snr if snr_db is None else float(snr_db)
    t60 = drawn_t60 if t60 is None else float(t60)
    n = ranges.segment_samples
    params = RirParams(direct_delay=int(rng.integers(8, 64)), t60=t60,
                       tail_length=min(max(int(t60 * SAMPLE_RATE), 1), 12000),
                       seed=int(rng.integers(0, 2**31 - 1)))
    h_d, h_r = synth_rir(params)
    dry = _dry_source(rng, n)
    noise = _noise_source(rng, n)
    truth = mix(dry, h_d, h_r, noise, snr_db, length=n)
    truth.t60 = t60
    return truth
