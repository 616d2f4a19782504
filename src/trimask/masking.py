"""Phase-aware beta-scaled sigmoid masks.

A mask pair (M_k, M_notk) splits a mixture bin into a source of interest and
the rest. Magnitudes come from a shared coefficient beta times complementary
sigmoids; the pair's phases are recovered from the law of cosines over the
triangle with sides (1, |M_k|, |M_notk|), with a binary rotation sign. The
construction guarantees M_k + M_notk == 1, so masked components always sum
back to the mixture. Two pairs (direct vs rest, noise vs rest) decompose the
mixture into direct / reverberation / noise; with three corners pinned by
the two triangles, the reverberation falls out as X - Y_d - Y_n, the
remaining side of a quadrangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .types import ComplexSpectrogram, SignalBuffer, as_samples, bins_of

EPS_DEG = 1e-8   # degenerate triangle side threshold
EPS_CLIP = 1e-8  # |2*sigma - 1| below this: clip bound -> inf, skip the clip
LOGIT_CLAMP = 500.0


@dataclass
class MaskLogits:
    """Pre-activation network outputs for one mask pair, each T x F."""

    z_k: np.ndarray
    z_notk: np.ndarray
    beta_logit: np.ndarray
    q0: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        grids = [self.z_k, self.z_notk, self.beta_logit, self.q0, self.q1]
        shape = np.shape(grids[0])
        for g in grids:
            if np.shape(g) != shape:
                raise ValueError("all logit grids must share one shape")
            if not np.all(np.isfinite(g)):
                raise ValueError("logit grids must be finite")

    @property
    def shape(self):
        return np.shape(self.z_k)


@dataclass
class PhmMaskField:
    """Assembled complex mask pair, mask_k + mask_notk == 1 per bin.

    Beta, the magnitudes, the sign and the cosines come from the logits
    through :func:`magnitude_masks`, :func:`gumbel_sign` and
    :func:`phase_factors`.
    """

    mask_k: np.ndarray
    mask_notk: np.ndarray


def magnitude_masks(logits: MaskLogits):
    """Magnitude halves of a mask pair.

    sigma = sigmoid(z_k - z_notk); beta = 1 + softplus(beta_logit), clipped
    from above by 1/|2*sigma - 1| so the triangle inequality
    | |M_k| - |M_notk| | <= 1 holds. Returns (mag_k, mag_notk, beta) with
    mag_k + mag_notk == beta exactly.
    """
    sigma = expit(np.asarray(logits.z_k, dtype=np.float64)
                  - np.asarray(logits.z_notk, dtype=np.float64))
    beta_raw = 1.0 + np.logaddexp(0.0, np.asarray(logits.beta_logit, dtype=np.float64))
    gap = np.abs(2.0 * sigma - 1.0)
    bound = np.where(gap > EPS_CLIP, 1.0 / np.maximum(gap, EPS_CLIP), np.inf)
    beta = np.minimum(beta_raw, bound)
    mag_k = beta * sigma
    # complement by subtraction: the sigma-complement identity
    # mag_k + mag_notk == beta then holds to the last rounding
    return mag_k, beta - mag_k, beta


def gumbel_sign(q0, q1):
    """Rotation sign grid xi in {-1, +1} from the two sign logits.

    The inference-time Gumbel-softmax: a hard argmax, -1 where q0 > q1 and
    +1 otherwise, so ties select +1 (the softmax temperature cancels).
    """
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    if q0.shape != q1.shape:
        raise ValueError("q0 and q1 must share one shape")
    return np.where(q0 > q1, -1.0, 1.0)


def phase_factors(mag_k, mag_notk):
    """Law-of-cosines phase terms for both halves of a mask pair.

    cos(dtheta_k) = (1 + mag_k^2 - mag_notk^2) / (2 mag_k), clamped to
    [-1, 1]; sin is the nonnegative root. The caller applies the rotation
    sign: +xi on the source-k factor, -xi on the complement, closing the
    triangle. Sides below EPS_DEG
    degenerate to (cos, sin) = (1, 0).
    """
    mag_k = np.asarray(mag_k, dtype=np.float64)
    mag_notk = np.asarray(mag_notk, dtype=np.float64)

    def half(a, b):
        safe = np.maximum(a, EPS_DEG)
        cos = np.clip((1.0 + a * a - b * b) / (2.0 * safe), -1.0, 1.0)
        cos = np.where(a < EPS_DEG, 1.0, cos)
        sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
        sin = np.where(a < EPS_DEG, 0.0, sin)
        return cos, sin

    cos_dk, sin_dk = half(mag_k, mag_notk)
    cos_dnotk, sin_dnotk = half(mag_notk, mag_k)
    return cos_dk, sin_dk, cos_dnotk, sin_dnotk


def assemble_masks(logits: MaskLogits) -> PhmMaskField:
    """Compose magnitudes, sign selection and phase factors into complex masks."""
    mag_k, mag_notk, _ = magnitude_masks(logits)
    xi = gumbel_sign(logits.q0, logits.q1)
    cos_dk, sin_dk, cos_dnotk, sin_dnotk = phase_factors(mag_k, mag_notk)
    return PhmMaskField(mask_k=mag_k * (cos_dk + 1j * xi * sin_dk),
                        mask_notk=mag_notk * (cos_dnotk - 1j * xi * sin_dnotk))


def _like(X, bins):
    return ComplexSpectrogram(bins) if isinstance(X, ComplexSpectrogram) else bins


def apply_mask(X, field: PhmMaskField):
    """Split X into (Y_k, Y_notk) = (mask_k * X, mask_notk * X)."""
    bins = bins_of(X)
    if bins.shape != field.mask_k.shape:
        raise ValueError(
            f"shape mismatch: spectrogram {bins.shape} vs mask {field.mask_k.shape}"
        )
    return _like(X, field.mask_k * bins), _like(X, field.mask_notk * bins)


def quadrangle_decompose(X, field_d: PhmMaskField, field_n: PhmMaskField):
    """Decompose a mixture into (direct, reverberation, noise).

    field_d separates direct vs rest, field_n separates noise vs rest; the
    reverberation is whatever remains, X - Y_d - Y_n, so the three
    parts always sum back to X.
    """
    bins = bins_of(X)
    if bins.shape != field_d.mask_k.shape or bins.shape != field_n.mask_k.shape:
        raise ValueError("shape mismatch between spectrogram and mask fields")
    y_d = field_d.mask_k * bins
    y_n = field_n.mask_k * bins
    y_r = bins - y_d - y_n
    return _like(X, y_d), _like(X, y_r), _like(X, y_n)


def oracle_fit(X, Y_target) -> MaskLogits:
    """Invert the mask construction analytically for a known target.

    Per bin, with a = |Y|/|X| and b = |X - Y|/|X|, the unique mask
    parameters are sigma = a/(a+b), beta = a+b, and xi the sign of
    Im(Y/X) (ties +1). Any true complex pair satisfies beta >= 1 and
    |a - b| <= 1, so the beta clip never truncates a feasible target.
    Bins with |X| <= EPS_DEG get pass-through defaults (mask_k == 1).
    """
    Xb = bins_of(X)
    Yb = bins_of(Y_target)
    if Xb.shape != Yb.shape:
        raise ValueError("shape mismatch between mixture and target")

    absX = np.abs(Xb)
    fit = absX > EPS_DEG
    safeX = np.where(fit, Xb, 1.0)
    ratio = Yb / safeX
    a = np.abs(ratio)
    b = np.abs(1.0 - ratio)

    with np.errstate(divide="ignore"):
        z = logit(a / np.maximum(a + b, EPS_DEG))
    z_k = np.clip(np.where(fit, z, LOGIT_CLAMP), -LOGIT_CLAMP, LOGIT_CLAMP)

    beta = np.maximum(a + b, 1.0)
    excess = beta - 1.0
    with np.errstate(divide="ignore"):
        bl = np.log(np.expm1(np.minimum(excess, 30.0)))
    # softplus(x) == x to double precision for x > 30, so large betas pass
    # through unclamped and feasible targets are never truncated
    bl = np.where(excess > 30.0, excess, bl)
    bl = np.where(excess <= 0.0, -LOGIT_CLAMP, bl)
    beta_logit = np.where(fit, bl, -LOGIT_CLAMP)

    neg = fit & (ratio.imag < 0.0)
    q0 = np.where(neg, 1.0, 0.0)
    q1 = np.where(neg, 0.0, 1.0)

    return MaskLogits(z_k=z_k, z_notk=np.zeros_like(z_k),
                      beta_logit=beta_logit, q0=q0, q1=q1)


def check_reverb_gain_db(reverb_gain_db: float) -> None:
    """Reject a remix gain whose linear factor 10^(gain_db/20) is not finite
    (NaN, +inf, or above about 6165 dB, where the power overflows)."""
    with np.errstate(over="ignore"):
        linear = np.power(10.0, reverb_gain_db / 20.0)
    if not np.isfinite(linear):
        raise ValueError(f"reverb_gain_db must be finite or -inf, with 10^(gain/20) "
                         f"finite too; got {reverb_gain_db}")


def remix(y_d, y_r, reverb_gain_db: float) -> SignalBuffer:
    """Linear remix of direct and reverberant estimates.

    out = y_d + 10^(gain_db/20) * y_r; a gain of -inf suppresses the
    reverberant part entirely.
    """
    check_reverb_gain_db(reverb_gain_db)
    d = as_samples(y_d)
    r = as_samples(y_r)
    if len(d) != len(r):
        raise ValueError(f"length mismatch: {len(d)} vs {len(r)}")
    if np.isneginf(reverb_gain_db):
        return SignalBuffer(samples=d.copy())
    return SignalBuffer(samples=d + 10.0 ** (reverb_gain_db / 20.0) * r)
