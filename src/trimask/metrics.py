"""Evaluation measures: magnitude-weighted phase distance and SI-SDR."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .types import as_samples, bins_of

SI_SDR_CAP_DB = 200.0


def phase_distance(A, B) -> float:
    """Magnitude-weighted mean angle between two complex spectrograms, in
    degrees [0, 180]. Weights are |A| normalized over the whole grid; bins
    where B is zero contribute angle 0."""
    a = bins_of(A)
    b = bins_of(B)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    mag = np.abs(a)
    total = mag.sum()
    if total == 0.0:
        raise ValueError("undefined weights: reference spectrogram is all zero")
    angles = np.abs(np.angle(a * np.conj(b)))
    angles = np.where(np.abs(b) == 0.0, 0.0, angles)
    # a weighted mean of angles in [0, pi] can round just past 180 degrees
    return min(float(np.sum(mag / total * angles) * 180.0 / math.pi), 180.0)


def si_sdr(reference, estimate) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped at +200.

    The estimate is projected onto the reference; the ratio is the projected
    energy over the residual energy.
    """
    ref = as_samples(reference)
    est = as_samples(estimate)
    if len(ref) != len(est):
        raise ValueError(f"length mismatch: {len(ref)} vs {len(est)}")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("zero reference")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    residual = target - est
    num = float(np.dot(target, target))
    den = float(np.dot(residual, residual))
    if den == 0.0 or num / den > 10.0 ** (SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    return 10.0 * math.log10(num / den)


def phase_gain(Y, X, Yhat) -> float:
    """Relative phase-distance improvement of the estimate over the mixture,
    100 * (PD(Y, X) - PD(Y, Yhat)) / PD(Y, X)."""
    baseline = phase_distance(Y, X)
    if baseline == 0.0:
        raise ValueError("no phase error to improve")
    return 100.0 * (baseline - phase_distance(Y, Yhat)) / baseline


@dataclass
class MetricReport:
    si_sdr_db: float
    phase_distance_deg: float
    reference_id: str = ""
    estimate_id: str = ""

    def __post_init__(self):
        if not (0.0 <= self.phase_distance_deg <= 180.0):
            raise ValueError("phase distance must be within [0, 180] degrees")

    def to_text(self) -> str:
        lines = []
        if self.reference_id or self.estimate_id:
            lines.append(f"reference: {self.reference_id}")
            lines.append(f"estimate:  {self.estimate_id}")
        lines.append(f"SI-SDR: {self.si_sdr_db:.2f} dB")
        lines.append(f"PD: {self.phase_distance_deg:.3f} deg")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "reference": self.reference_id,
            "estimate": self.estimate_id,
            "si_sdr_db": self.si_sdr_db,
            "phase_distance_deg": self.phase_distance_deg,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def evaluate_pair(reference, estimate, stft_cfg, reference_id: str = "",
                  estimate_id: str = "") -> MetricReport:
    """SI-SDR on the waveforms plus PD between their spectrograms."""
    from .spectral import stft

    ref = as_samples(reference)
    est = as_samples(estimate)
    return MetricReport(
        si_sdr_db=si_sdr(ref, est),
        phase_distance_deg=phase_distance(stft(ref, stft_cfg), stft(est, stft_cfg)),
        reference_id=reference_id,
        estimate_id=estimate_id,
    )
