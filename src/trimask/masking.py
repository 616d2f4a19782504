"""Phase-aware beta-scaled sigmoid masks, in closed form.

A mask pair (M_k, M_notk) splits a mixture bin into a source of interest and
the rest. Its magnitudes are a shared coefficient beta times complementary
sigmoids, |M_k| = beta*sigma and |M_notk| = beta*(1 - sigma), and its phases
close the triangle with sides (1, |M_k|, |M_notk|), turned by a binary
rotation sign xi. With d = beta*(2*sigma - 1) = |M_k| - |M_notk|, the law of
cosines and Heron's formula give the mask from the sides alone:

    M_k = [(1 + beta*d) + i*xi*sqrt((beta^2 - 1)(1 - d^2))] / 2

and M_notk = 1 - M_k, so masked components always sum back to the mixture.
No angle, cosine or division by a side is formed, so near-degenerate
triangles keep their precision (W. Kahan, "Miscalculating Area and Angles of
a Needle-like Triangle"). Two pairs (direct vs rest, noise vs rest)
decompose the mixture into direct / reverberation / noise; with three
corners pinned by the two triangles, the reverberation falls out as
X - Y_d - Y_n, the remaining side of a quadrangle. The pipeline computes
both pairs' M_k in one pass straight into rows 0 and 2 of the ``(3, T, F)``
stack that the inverse STFT consumes, and the decomposition then fills that
stack in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SignalBuffer, as_samples, bins_of, spectrogram_like

EPS_DEG = 1e-8   # |X| at or below this: oracle_fit's pass-through defaults
LOGIT_CLAMP = 500.0


@dataclass
class MaskLogits:
    """Pre-activation network outputs of mask pairs: five grids of one
    shape, any leading axes (``unet.split_head`` gives a leading pair axis,
    direct then noise)."""

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


def assemble_masks(logits: MaskLogits, out: np.ndarray | None = None) -> np.ndarray:
    """M_k of every pair in ``logits``, as a complex array of its shape,
    written into ``out`` (which may be a strided view) if one is given.

    sigma = sigmoid(z_k - z_notk), so t = 2*sigma - 1 = tanh((z_k - z_notk)/2);
    beta = 1 + s with s = softplus(beta_logit), clipped from above so that
    |d| <= 1, the triangle inequality. The clip is decided once, from
    u = (1 + s)*t: d = clip(u, -1, 1) and beta = (1 + s)/max(1, |u|), which
    is min(1 + s, 1/|t|) without a division by |t|. xi = -1 where q0 > q1
    and +1 otherwise (ties +1). Where beta was clipped, |d| == 1 exactly and
    the triangle is collinear: the imaginary part is exactly 0. The
    complement is M_notk = 1 - M_k.
    """
    shape = logits.shape
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape:
        raise ValueError(f"shape mismatch: logits {shape} vs out {out.shape}")
    t = np.subtract(logits.z_k, logits.z_notk, dtype=np.float64)
    t *= 0.5
    np.tanh(t, out=t)  # 2*sigma - 1
    # s = softplus(beta_logit) = beta_raw - 1, as max(x, 0) + log1p(exp(-|x|))
    bl = logits.beta_logit
    s = np.abs(bl, dtype=np.float64)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.log1p(s, out=s)
    d = np.maximum(bl, 0.0, dtype=np.float64)
    s += d
    # u = beta_raw*t; the clip: d = clip(u, -1, 1), beta = beta_raw/max(1, |u|)
    np.multiply(s, t, out=d)
    d += t
    shrink = np.abs(d, out=t)
    np.maximum(shrink, 1.0, out=shrink)
    np.clip(d, -1.0, 1.0, out=d)
    # imaginary part: xi*sqrt((1 - d)*(1 + d)*s)*sqrt(2 + s)/2, with
    # beta^2 - 1 = s*(2 + s) for the unclipped beta, split over two roots so
    # that no product exceeds s; where beta was clipped, 1 - d == 0 or
    # 1 + d == 0 makes it exactly 0
    re, im = out.real, out.imag
    h = np.subtract(1.0, d)
    np.add(d, 1.0, out=im)
    h *= im
    h *= s
    np.sqrt(h, out=h)
    np.add(s, 2.0, out=im)
    np.sqrt(im, out=im)
    h *= im
    np.multiply(h, 0.5, out=im)
    np.negative(im, out=im, where=np.greater(logits.q0, logits.q1))
    # real part: (1 + beta*d)/2
    s += 1.0
    s /= shrink
    s *= d
    s += 1.0
    np.multiply(s, 0.5, out=re)
    return out


def quadrangle_decompose(X, masks: np.ndarray):
    """Decompose a mixture into (direct, reverberation, noise), in place.

    ``masks`` is a ``(3, *X.shape)`` complex stack holding M_k of the
    direct pair in row 0 and of the noise pair in row 2, as
    ``assemble_masks(split_head(head), out=masks[::2])`` writes them. Rows
    0 and 2 become Y_d = M_d*X and Y_n = M_n*X, and row 1 the
    reverberation X - Y_d - Y_n, so the three rows always sum back to X.
    Returns the rows (as ComplexSpectrograms if X is one), views of
    ``masks``.
    """
    bins = bins_of(X)
    if masks.shape != (3, *bins.shape):
        raise ValueError(f"shape mismatch: spectrogram {bins.shape} vs mask stack "
                         f"{masks.shape}")
    y_d, y_r, y_n = masks
    y_d *= bins
    y_n *= bins
    np.subtract(bins, y_d, out=y_r)
    y_r -= y_n
    return spectrogram_like(X, y_d), spectrogram_like(X, y_r), spectrogram_like(X, y_n)


def oracle_fit(X, Y_target) -> MaskLogits:
    """Invert the mask construction analytically for a known target.

    Per bin, with a = |Y/X| and b = |1 - Y/X|, the unique mask parameters
    are z_k - z_notk = log a - log b = logit(a/(a+b)), beta = a+b, and xi
    the sign of Im(Y/X) (ties +1). Any true complex pair satisfies
    beta >= 1 and |a - b| <= 1, so the beta clip never truncates a
    feasible target. a and b share the divisor |X|, which cancels from
    log a - log b, so no complex division is formed. Bins with
    |X| <= EPS_DEG get pass-through defaults (mask_k == 1).
    """
    Xb = bins_of(X)
    Yb = bins_of(Y_target)
    if Xb.shape != Yb.shape:
        raise ValueError("shape mismatch between mixture and target")

    abs_x = np.abs(Xb)
    unfit = abs_x <= EPS_DEG
    a = np.abs(Yb)  # |X| * a
    b = np.abs(np.subtract(Xb, Yb))  # |X| * b
    # the pass-through defaults: a = 1, b = 0 over |X| = 1
    np.copyto(a, 1.0, where=unfit)
    np.copyto(b, 0.0, where=unfit)
    np.copyto(abs_x, 1.0, where=unfit)

    excess = np.add(a, b)  # beta - 1 for beta = max(a + b, 1)
    excess /= abs_x
    excess -= 1.0
    np.maximum(excess, 0.0, out=excess)
    with np.errstate(divide="ignore"):
        z_k = np.log(a, out=a)
        z_k -= np.log(b, out=b)
    np.clip(z_k, -LOGIT_CLAMP, LOGIT_CLAMP, out=z_k)

    bl = np.minimum(excess, 30.0, out=b)
    np.expm1(bl, out=bl)
    with np.errstate(divide="ignore"):
        np.log(bl, out=bl)
    # softplus(x) == x to double precision for x > 30, so large betas pass
    # through unclamped and feasible targets are never truncated
    np.copyto(bl, excess, where=excess > 30.0)
    np.copyto(bl, -LOGIT_CLAMP, where=excess <= 0.0)

    # Im(Y/X) has the sign of Im(Y * conj(X)) = Im(Y) Re(X) - Re(Y) Im(X)
    im = np.multiply(Yb.imag, Xb.real, out=abs_x)
    im -= Yb.real * Xb.imag
    np.copyto(im, 0.0, where=unfit)
    q0 = np.less(im, 0.0).astype(np.float64)
    return MaskLogits(z_k=z_k, z_notk=np.zeros_like(z_k), beta_logit=bl, q0=q0,
                      q1=np.subtract(1.0, q0))


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
