"""Emphasized multi-scale cosine-similarity loss family with analytic gradients.

The base loss is a negative cosine similarity per segment, averaged over
contiguous non-overlapping segments at several lengths. The emphasized
variant adds the same loss on pre-emphasized and on mu-law companded
pre-emphasized signals. The final objective sums the emphasized loss over
the three components and their mixture complements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SignalBuffer, as_samples, check_fields

DEFAULT_SEGMENTS = (4064, 2032, 1016, 508)


@dataclass(frozen=True)
class LossConfig:
    segment_lengths: tuple = DEFAULT_SEGMENTS
    preemph_alpha: float = 0.97
    mu: float = 65535.0
    # Stabilizer added to each norm. Small enough that the perfect-prediction
    # values hit their nominal -1/-4/-12/-72 within 1e-8 even for mu-law
    # companded segments (whose norms are capped at sqrt(segment_length)).
    eps_norm: float = 1e-11

    def __post_init__(self):
        check_fields(self, int, "segment_lengths", arity=-1)
        check_fields(self, float, "preemph_alpha", "mu", "eps_norm")
        if not self.segment_lengths:
            raise ValueError("need at least one segment length")
        if any(g <= 0 for g in self.segment_lengths):
            raise ValueError("segment lengths must be positive")
        if not (0.0 <= self.preemph_alpha < 1.0):
            raise ValueError("preemph_alpha must be in [0, 1)")
        if self.mu <= 0 or self.eps_norm <= 0:
            raise ValueError("mu and eps_norm must be positive")


def _pair(y, yhat):
    a = as_samples(y)
    b = as_samples(yhat)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return a, b


def cos_sim_loss(y, yhat, eps_norm: float = 1e-11) -> float:
    """Negative cosine similarity, -<y, yhat> / ((|y|+eps) (|yhat|+eps))."""
    a, b = _pair(y, yhat)
    if len(a) < 1:
        raise ValueError("signals must be non-empty")
    return float(-np.dot(a, b) / ((np.linalg.norm(a) + eps_norm)
                                  * (np.linalg.norm(b) + eps_norm)))


def multiscale_loss(y, yhat, cfg: LossConfig = LossConfig()) -> float:
    """Sum over scales of the per-segment mean cosine-similarity loss.

    Each scale slices the signals into contiguous non-overlapping segments
    of length g_j; a trailing remainder shorter than g_j is dropped, and a
    scale with no full segment contributes nothing. Errors out if no scale
    fits a single full segment.
    """
    a, b = _pair(y, yhat)
    total = 0.0
    any_scale = False
    for g in cfg.segment_lengths:
        m = len(a) // g
        if m == 0:
            continue
        any_scale = True
        ya = a[: m * g].reshape(m, g)
        yb = b[: m * g].reshape(m, g)
        dots = np.einsum("ij,ij->i", ya, yb)
        na = np.linalg.norm(ya, axis=1) + cfg.eps_norm
        nb = np.linalg.norm(yb, axis=1) + cfg.eps_norm
        total += float(np.mean(-dots / (na * nb)))
    if not any_scale:
        raise ValueError("no full segment at any scale")
    return total


def pre_emphasis(y, alpha: float = 0.97) -> SignalBuffer:
    """First-difference high-frequency emphasis: out[t] = y[t] - alpha*y[t-1]."""
    x = as_samples(y)
    out = x.copy()
    if len(x) > 1:
        out[1:] = x[1:] - alpha * x[:-1]
    return SignalBuffer(samples=out)


def _pre_emphasis_adjoint(g: np.ndarray, alpha: float) -> np.ndarray:
    out = g.copy()
    if len(g) > 1:
        out[:-1] = g[:-1] - alpha * g[1:]
    return out


def mu_law(y, mu: float = 65535.0) -> SignalBuffer:
    """Continuous mu-law companding, sign(y) ln(1 + mu|y|) / ln(1 + mu).

    Inputs are clamped to [-1, 1] first; no quantization.
    """
    x = np.clip(as_samples(y), -1.0, 1.0)
    return SignalBuffer(samples=np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu))


def _mu_law_grad(u: np.ndarray, mu: float) -> np.ndarray:
    # derivative of mu_law at u; zero beyond the clamp range
    g = mu / (np.log1p(mu) * (1.0 + mu * np.abs(np.clip(u, -1.0, 1.0))))
    return np.where(np.abs(u) > 1.0, 0.0, g)


def emphasized_loss(y, yhat, cfg: LossConfig = LossConfig()) -> float:
    """Multi-scale loss on raw, pre-emphasized, and companded pre-emphasized pairs."""
    a, b = _pair(y, yhat)
    pa = pre_emphasis(a, cfg.preemph_alpha).samples
    pb = pre_emphasis(b, cfg.preemph_alpha).samples
    return (multiscale_loss(a, b, cfg)
            + multiscale_loss(pa, pb, cfg)
            + multiscale_loss(mu_law(pa, cfg.mu).samples, mu_law(pb, cfg.mu).samples, cfg))


def final_loss(components: dict, mixture, cfg: LossConfig = LossConfig()) -> float:
    """Emphasized loss summed over every component and its mixture complement.

    ``components`` maps each of "d", "r", "n" to a (truth, estimate) pair;
    complements are truth' = mixture - truth and likewise for the estimate.
    """
    x = as_samples(mixture)
    total = 0.0
    for k in ("d", "r", "n"):
        if k not in components:
            raise ValueError(f"missing component {k!r}")
        y, yhat = _pair(*components[k])
        if len(y) != len(x):
            raise ValueError(f"component {k!r} length differs from mixture")
        total += emphasized_loss(y, yhat, cfg)
        total += emphasized_loss(x - y, x - yhat, cfg)
    return total


def _multiscale_grad(a: np.ndarray, b: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """d multiscale_loss(a, b) / d b."""
    grad = np.zeros_like(b)
    for g in cfg.segment_lengths:
        m = len(a) // g
        if m == 0:
            continue
        ya = a[: m * g].reshape(m, g)
        yb = b[: m * g].reshape(m, g)
        dots = np.einsum("ij,ij->i", ya, yb)
        nb_raw = np.linalg.norm(yb, axis=1)
        na = np.linalg.norm(ya, axis=1) + cfg.eps_norm
        nb = nb_raw + cfg.eps_norm
        # dC/dyb = -ya/(na*nb) + dot * (yb/nb_raw) / (na*nb^2)
        unit_b = np.where(nb_raw[:, None] > 0.0, yb / np.maximum(nb_raw, 1e-300)[:, None], 0.0)
        seg_grad = (-ya / (na * nb)[:, None]
                    + (dots / (na * nb * nb))[:, None] * unit_b)
        grad[: m * g] += (seg_grad / m).reshape(-1)
    return grad


def loss_gradient(y, yhat, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Analytic gradient of emphasized_loss with respect to the estimate."""
    a, b = _pair(y, yhat)
    pa = pre_emphasis(a, cfg.preemph_alpha).samples
    pb = pre_emphasis(b, cfg.preemph_alpha).samples
    ma = mu_law(pa, cfg.mu).samples
    mb = mu_law(pb, cfg.mu).samples

    grad = _multiscale_grad(a, b, cfg)
    grad += _pre_emphasis_adjoint(_multiscale_grad(pa, pb, cfg), cfg.preemph_alpha)
    g_mu = _multiscale_grad(ma, mb, cfg) * _mu_law_grad(pb, cfg.mu)
    grad += _pre_emphasis_adjoint(g_mu, cfg.preemph_alpha)
    return grad
