import math

import numpy as np
import pytest

from trimask import (cos_sim_loss, emphasized_loss, final_loss, loss_gradient, mu_law,
                     multiscale_loss, pre_emphasis)
from trimask.losses import EPS_NORM, MU, PREEMPH_ALPHA


def _brute_multiscale(y, yhat):
    """Independent re-implementation with explicit loops over the paper's scales."""
    total = 0.0
    for g in (4064, 2032, 1016, 508):
        m = len(y) // g
        if m == 0:
            continue
        acc = 0.0
        for i in range(m):
            a = y[g * i : g * (i + 1)]
            b = yhat[g * i : g * (i + 1)]
            acc += -float(np.dot(a, b)) / ((np.linalg.norm(a) + EPS_NORM)
                                           * (np.linalg.norm(b) + EPS_NORM))
        total += acc / m
    return total


def test_cos_sim_basic():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(1000)
    assert cos_sim_loss(y, y) == pytest.approx(-1.0, abs=1e-9)
    assert cos_sim_loss(y, -y) == pytest.approx(1.0, abs=1e-9)
    assert cos_sim_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    with pytest.raises(ValueError, match="length mismatch"):
        cos_sim_loss(y, y[:10])


def test_multiscale_perfect_and_flipped():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(8128)
    assert multiscale_loss(y, y) == pytest.approx(-4.0, abs=1e-9)
    assert multiscale_loss(y, -y) == pytest.approx(4.0, abs=1e-9)


def test_multiscale_matches_brute_force():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(8128)
    yhat = rng.standard_normal(8128)
    assert multiscale_loss(y, yhat) == pytest.approx(_brute_multiscale(y, yhat), abs=1e-12)


def test_multiscale_drops_trailing_remainder():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(5000)  # 4064-scale has 1 segment + remainder
    yhat = rng.standard_normal(5000)
    assert multiscale_loss(y, yhat) == pytest.approx(_brute_multiscale(y, yhat), abs=1e-12)


def test_multiscale_errors_when_no_scale_fits():
    for loss in (multiscale_loss, emphasized_loss, loss_gradient):
        with pytest.raises(ValueError, match="no full segment"):
            loss(np.ones(100), np.ones(100))


def test_multiscale_scale_invariance():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(8128) * 4.0
    yhat = rng.standard_normal(8128) * 4.0
    base = multiscale_loss(y, yhat)
    for c in (0.5, 2.0, 10.0, 1e3):
        assert multiscale_loss(y, c * yhat) == pytest.approx(base, abs=1e-9)


def test_pre_emphasis():
    out = pre_emphasis([1.0, 1.0, 1.0]).samples
    assert np.allclose(out, [1.0, 0.03, 0.03])
    dc = pre_emphasis(np.full(100, 0.5)).samples
    assert np.allclose(dc[1:], 0.5 * (1 - 0.97))


def test_mu_law_values():
    mu = 65535.0
    out = mu_law(np.array([0.0, 1.0, -1.0, 0.5])).samples
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0, abs=1e-15)
    assert out[2] == pytest.approx(-1.0, abs=1e-15)
    oracle = math.log(1 + mu * 0.5) / math.log(1 + mu)
    assert out[3] == pytest.approx(oracle, abs=1e-15)
    assert oracle == pytest.approx(0.93750, abs=1e-5)
    # clamps outside [-1, 1]
    assert mu_law(np.array([2.0])).samples[0] == pytest.approx(1.0, abs=1e-15)


def test_emphasized_perfect_and_odd():
    rng = np.random.default_rng(5)
    y = rng.uniform(-0.5, 0.5, 8128)
    assert emphasized_loss(y, y) == pytest.approx(-12.0, abs=1e-9)
    assert emphasized_loss(y, -y) == pytest.approx(12.0, abs=1e-9)


def test_emphasized_matches_composition_oracle():
    rng = np.random.default_rng(6)
    y = rng.uniform(-0.5, 0.5, 8128)
    yhat = rng.uniform(-0.5, 0.5, 8128)

    def pi(u):
        out = u.copy()
        out[1:] = u[1:] - PREEMPH_ALPHA * u[:-1]
        return out

    def mu(u):
        u = np.clip(u, -1, 1)
        return np.sign(u) * np.log1p(MU * np.abs(u)) / np.log1p(MU)

    oracle = (_brute_multiscale(y, yhat)
              + _brute_multiscale(pi(y), pi(yhat))
              + _brute_multiscale(mu(pi(y)), mu(pi(yhat))))
    assert emphasized_loss(y, yhat) == pytest.approx(oracle, abs=1e-12)


def _components(rng, n):
    comps = {k: (rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n))
             for k in ("d", "r", "n")}
    x = sum(v[0] for v in comps.values())
    return comps, x


def test_final_loss_perfect_prediction():
    rng = np.random.default_rng(7)
    comps, x = _components(rng, 32000)
    perfect = {k: (y, y.copy()) for k, (y, _) in comps.items()}
    assert final_loss(perfect, x) == pytest.approx(-72.0, abs=1e-8)


def test_final_loss_matches_naive_summation():
    rng = np.random.default_rng(8)
    comps, x = _components(rng, 8128)
    oracle = 0.0
    for k, (y, yhat) in comps.items():
        oracle += emphasized_loss(y, yhat) + emphasized_loss(x - y, x - yhat)
    assert final_loss(comps, x) == pytest.approx(oracle, abs=1e-12)


def test_final_loss_complement_symmetry():
    # swapping a component with its complement relabels the pair's two terms
    rng = np.random.default_rng(9)
    comps, x = _components(rng, 8128)
    swapped = dict(comps)
    y, yhat = comps["d"]
    swapped["d"] = (x - y, x - yhat)
    assert final_loss(swapped, x) == pytest.approx(final_loss(comps, x), abs=1e-10)


def test_final_loss_missing_component():
    rng = np.random.default_rng(10)
    comps, x = _components(rng, 8128)
    del comps["r"]
    with pytest.raises(ValueError, match="missing component"):
        final_loss(comps, x)


def test_gradient_vanishes_at_perfect_prediction():
    rng = np.random.default_rng(11)
    y = rng.uniform(-0.4, 0.4, 8128)
    grad = loss_gradient(y, y.copy())
    assert np.max(np.abs(grad)) < 1e-10


def test_multiscale_gradient_tangent_to_estimate():
    # cosine-similarity gradients are tangent to the sphere per segment; every
    # scale tiles 4064 samples exactly, so their sum is tangent to the estimate
    from trimask.losses import _multiscale_grad

    rng = np.random.default_rng(12)
    y = rng.uniform(-0.4, 0.4, 4064)
    yhat = rng.uniform(-0.4, 0.4, 4064)
    grad = _multiscale_grad(y, yhat)
    cosine = abs(np.dot(grad, yhat)) / (np.linalg.norm(grad) * np.linalg.norm(yhat))
    assert cosine < 1e-6


def _directional_fd(y, yhat, v, h=1e-6):
    return (emphasized_loss(y, yhat + h * v)
            - emphasized_loss(y, yhat - h * v)) / (2 * h)


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4064, 12000))
        y = rng.uniform(-0.4, 0.4, n)
        yhat = rng.uniform(-0.4, 0.4, n)
        grad = loss_gradient(y, yhat)
        for _ in range(4):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            fd = _directional_fd(y, yhat, v)
            assert abs(float(np.dot(grad, v)) - fd) <= 1e-4 * max(abs(fd), 1e-12)


def test_gradient_coordinate_finite_differences():
    # at 1016 samples only the 1016 and 508 scales fit
    rng = np.random.default_rng(14)
    y = rng.uniform(-0.4, 0.4, 1016)
    yhat = rng.uniform(-0.4, 0.4, 1016)
    grad = loss_gradient(y, yhat)
    h = 1e-6
    for idx in rng.integers(0, 1016, size=24):
        e = np.zeros(1016)
        e[idx] = 1.0
        fd = (emphasized_loss(y, yhat + h * e)
              - emphasized_loss(y, yhat - h * e)) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1e-8)


def test_cos_sim_range_bounded():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.standard_normal(64) * 10 ** rng.uniform(-6, 3)
        b = rng.standard_normal(64) * 10 ** rng.uniform(-6, 3)
        assert -1.0 <= cos_sim_loss(a, b) <= 1.0


def test_multiscale_range_bounded_by_scale_count():
    rng = np.random.default_rng(16)
    y = rng.standard_normal(8128)
    yhat = rng.standard_normal(8128)
    assert -4.0 <= multiscale_loss(y, yhat) <= 4.0


def test_emphasis_stages_are_odd():
    rng = np.random.default_rng(17)
    y = rng.uniform(-0.9, 0.9, 500)
    assert np.allclose(pre_emphasis(-y).samples, -pre_emphasis(y).samples)
    assert np.allclose(mu_law(-y).samples, -mu_law(y).samples)
    yy = rng.uniform(-0.5, 0.5, 8128)
    yh = rng.uniform(-0.5, 0.5, 8128)
    assert emphasized_loss(-yy, -yh) == pytest.approx(emphasized_loss(yy, yh), abs=1e-12)

