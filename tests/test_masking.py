import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from scipy.special import logit as scipy_logit

from trimask import (MaskLogits, PhmMaskField, apply_mask, assemble_masks,
                     gumbel_sign, magnitude_masks, oracle_fit, phase_factors,
                     quadrangle_decompose, remix)
from trimask.masking import LOGIT_CLAMP, expit, logit


def _logits(z_k=0.0, z_notk=0.0, beta_logit=0.0, q0=0.0, q1=0.0, shape=(1, 1)):
    full = lambda v: np.full(shape, float(v))
    return MaskLogits(z_k=full(z_k), z_notk=full(z_notk), beta_logit=full(beta_logit),
                      q0=full(q0), q1=full(q1))


def _random_logits(rng, shape, spread=4.0):
    return MaskLogits(
        z_k=rng.uniform(-spread, spread, shape),
        z_notk=rng.uniform(-spread, spread, shape),
        beta_logit=rng.uniform(-spread, spread, shape),
        q0=rng.uniform(-spread, spread, shape),
        q1=rng.uniform(-spread, spread, shape),
    )


def test_magnitude_masks_balanced_case():
    mag_k, mag_notk, beta = magnitude_masks(_logits())
    assert beta[0, 0] == pytest.approx(1.0 + math.log(2.0), abs=1e-12)
    assert mag_k[0, 0] == pytest.approx(0.84657359, abs=1e-7)
    assert mag_notk[0, 0] == pytest.approx(mag_k[0, 0], abs=1e-15)


def test_magnitude_masks_clip_at_sigma_09():
    # sigma = 0.9, raw beta = 3: clip bound 1/0.8 = 1.25
    lg = _logits(z_k=math.log(9.0), beta_logit=math.log(math.expm1(2.0)))
    mag_k, mag_notk, beta = magnitude_masks(lg)
    assert beta[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert mag_k[0, 0] == pytest.approx(1.125, abs=1e-12)
    assert mag_notk[0, 0] == pytest.approx(0.125, abs=1e-12)


def test_magnitude_masks_full_assignment_limit():
    lg = _logits(z_k=500.0, z_notk=-500.0, beta_logit=3.0)
    mag_k, mag_notk, beta = magnitude_masks(lg)
    assert beta[0, 0] == 1.0  # clip forces beta -> 1
    assert mag_k[0, 0] == 1.0
    assert mag_notk[0, 0] == 0.0


def test_magnitude_masks_invariants_fuzz():
    rng = np.random.default_rng(0)
    mag_k, mag_notk, beta = magnitude_masks(_random_logits(rng, (200, 200), spread=8.0))
    assert np.all(beta >= 1.0)
    # sigma-complement identity, tight to the last rounding of beta
    assert np.all(np.abs((mag_k + mag_notk) - beta) <= np.spacing(beta))
    assert np.all(np.abs(mag_k - mag_notk) <= 1.0 + 1e-9)
    assert np.all(mag_notk >= 0.0)


def test_gumbel_sign_deterministic():
    assert gumbel_sign(np.array([2.0]), np.array([1.0]))[0] == -1.0
    assert gumbel_sign(np.array([1.0]), np.array([1.0]))[0] == 1.0  # tie -> +1
    assert gumbel_sign(np.array([0.0]), np.array([3.0]))[0] == 1.0


def test_phase_factors_equilateral():
    one = np.ones((1, 1))
    cos_dk, sin_dk, cos_dnotk, sin_dnotk = phase_factors(one, one)
    assert cos_dk[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert cos_dnotk[0, 0] == pytest.approx(0.5, abs=1e-15)
    total = 1.0 * (cos_dk + 1j * sin_dk) + 1.0 * (cos_dnotk - 1j * sin_dnotk)
    assert abs(total[0, 0] - 1.0) < 1e-12


def test_phase_factors_3_4_5_triangle():
    a = np.full((1, 1), 0.6)
    b = np.full((1, 1), 0.8)
    cos_dk, sin_dk, cos_dnotk, sin_dnotk = phase_factors(a, b)
    assert cos_dk[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert cos_dnotk[0, 0] == pytest.approx(0.8, abs=1e-12)
    total = 0.6 * (cos_dk[0, 0] + 1j * sin_dk[0, 0]) + 0.8 * (cos_dnotk[0, 0] - 1j * sin_dnotk[0, 0])
    assert abs(total - 1.0) < 1e-12


def test_phase_factors_collinear_degenerate():
    cos_dk, sin_dk, cos_dnotk, sin_dnotk = phase_factors(
        np.ones((1, 1)), np.zeros((1, 1)))
    assert cos_dk[0, 0] == 1.0 and sin_dk[0, 0] == 0.0
    assert cos_dnotk[0, 0] == 1.0 and sin_dnotk[0, 0] == 0.0


def test_assemble_masks_60_degree_pair():
    # sigma = 0.5 with beta = 2 gives two unit masks at +/-60 degrees
    field = assemble_masks(_logits(beta_logit=math.log(math.expm1(1.0))))
    assert [f.name for f in dataclasses.fields(PhmMaskField)] == ["mask_k", "mask_notk"]
    assert field.mask_k[0, 0] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-12)
    assert field.mask_notk[0, 0] == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-12)
    assert field.mask_k[0, 0] + field.mask_notk[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_assemble_masks_full_assignment():
    field = assemble_masks(_logits(z_k=500.0, z_notk=-500.0, beta_logit=2.0))
    assert field.mask_k[0, 0] == 1.0 + 0.0j
    assert field.mask_notk[0, 0] == 0.0 + 0.0j


def test_assemble_masks_closure_fuzz():
    rng = np.random.default_rng(42)
    field = assemble_masks(_random_logits(rng, (400, 250), spread=10.0))
    closure = field.mask_k + field.mask_notk - 1.0
    assert np.max(np.abs(closure)) < 1e-6


def test_xi_flip_conjugates_masks():
    rng = np.random.default_rng(7)
    lg = _random_logits(rng, (50, 50))
    plus = assemble_masks(MaskLogits(lg.z_k, lg.z_notk, lg.beta_logit,
                                     np.zeros_like(lg.q0), np.ones_like(lg.q1)))
    minus = assemble_masks(MaskLogits(lg.z_k, lg.z_notk, lg.beta_logit,
                                      np.ones_like(lg.q0), np.zeros_like(lg.q1)))
    assert np.allclose(minus.mask_k, np.conj(plus.mask_k))
    assert np.allclose(minus.mask_notk, np.conj(plus.mask_notk))
    assert np.array_equal(np.abs(minus.mask_k), np.abs(plus.mask_k))


def test_apply_mask_identity_and_shape_check():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
    field = assemble_masks(_logits(z_k=500.0, z_notk=-500.0, shape=(20, 30)))
    y_k, y_notk = apply_mask(X, field)
    assert np.array_equal(y_k, X)
    assert np.all(y_notk == 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        apply_mask(X[:, :10], field)


def test_apply_mask_closure_fuzz():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    field = assemble_masks(_random_logits(rng, (100, 100), spread=6.0))
    y_k, y_notk = apply_mask(X, field)
    assert np.max(np.abs(y_k + y_notk - X)) < 1e-6 * np.max(np.abs(X))


def test_quadrangle_identity_and_closure():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    all_pass = assemble_masks(_logits(z_k=500.0, z_notk=-500.0, shape=(40, 40)))
    all_stop = assemble_masks(_logits(z_k=-500.0, z_notk=500.0, shape=(40, 40)))
    y_d, y_r, y_n = quadrangle_decompose(X, all_pass, all_stop)
    assert np.array_equal(y_d, X)
    assert np.all(y_n == 0)
    assert np.all(y_r == 0)

    f1 = assemble_masks(_random_logits(rng, (40, 40)))
    f2 = assemble_masks(_random_logits(rng, (40, 40)))
    y_d, y_r, y_n = quadrangle_decompose(X, f1, f2)
    # fourth side: exact by construction (one floating subtraction)
    assert np.array_equal(y_d + y_n + y_r, (y_d + y_n) + (X - y_d - y_n))
    assert np.max(np.abs(y_d + y_r + y_n - X)) < 1e-12 * np.max(np.abs(X))


def test_oracle_fit_pass_through():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    field = assemble_masks(oracle_fit(X, X))
    y_k, _ = apply_mask(X, field)
    assert np.max(np.abs(y_k - X)) < 1e-6 * np.max(np.abs(X))


def test_oracle_fit_half_mixture():
    X = np.array([[3.0 - 4.0j]])
    lg = oracle_fit(X, X / 2.0)
    mag_k, mag_notk, beta = magnitude_masks(lg)
    assert mag_k[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert beta[0, 0] == pytest.approx(1.0, abs=1e-12)
    cos_dk = phase_factors(mag_k, mag_notk)[0]
    assert cos_dk[0, 0] == pytest.approx(1.0, abs=1e-12)  # collinear
    assert assemble_masks(lg).mask_k[0, 0] == pytest.approx(0.5 + 0j, abs=1e-12)


def test_oracle_fit_random_round_trip():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 120)) + 1j * rng.standard_normal((200, 120))
    Y = (rng.standard_normal((200, 120)) + 1j * rng.standard_normal((200, 120))) * 1.5
    field = assemble_masks(oracle_fit(X, Y))
    y_k, y_notk = apply_mask(X, field)
    rel = np.abs(y_k - Y) / np.abs(X)
    assert np.max(rel) < 1e-6
    assert np.max(np.abs(y_notk - (X - Y)) / np.abs(X)) < 1e-6


def test_remix_gains():
    rng = np.random.default_rng(6)
    d = rng.standard_normal(100)
    r = rng.standard_normal(100)
    out = remix(d, r, -15.0)
    assert np.allclose(out.samples, d + 10 ** (-0.75) * r)
    assert 10 ** (-15.0 / 20.0) == pytest.approx(0.17783, abs=1e-5)
    assert np.allclose(remix(d, r, 0.0).samples, d + r)
    assert np.array_equal(remix(d, r, float("-inf")).samples, d)
    with pytest.raises(ValueError, match="length mismatch"):
        remix(d, r[:50], 0.0)
    for gain in (float("nan"), float("inf"), 7000.0):
        with pytest.raises(ValueError, match="reverb_gain_db"):
            remix(d, r, gain)


def test_mask_logits_validation():
    with pytest.raises(ValueError, match="share one shape"):
        MaskLogits(z_k=np.zeros((2, 2)), z_notk=np.zeros((2, 3)),
                   beta_logit=np.zeros((2, 2)), q0=np.zeros((2, 2)), q1=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        MaskLogits(z_k=np.full((1, 1), np.nan), z_notk=np.zeros((1, 1)),
                   beta_logit=np.zeros((1, 1)), q0=np.zeros((1, 1)), q1=np.zeros((1, 1)))


def test_expit_matches_scipy_within_4_ulp():
    rng = np.random.default_rng(0)
    # +-2 * LOGIT_CLAMP is the widest z_k - z_notk; the largest ULP gaps
    # sit near x = -37, where 1 + exp(-x) starts to round
    x = np.concatenate([np.linspace(-2 * LOGIT_CLAMP, 2 * LOGIT_CLAMP, 200_001),
                        rng.uniform(-40.0, 40.0, 200_000)])
    ref = scipy_expit(x)
    assert np.all(np.abs(expit(x) - ref) <= 4 * np.spacing(ref))
    assert expit(np.array([-1000.0, 0.0, 1000.0])).tolist() == [0.0, 0.5, 1.0]


def test_logit_matches_scipy():
    p = np.concatenate([np.linspace(0.0, 1.0, 1_000_001),
                        np.random.default_rng(1).uniform(0.0, 1.0, 200_000)])
    ref = scipy_logit(p)
    ours = logit(p)
    assert np.array_equal(np.isfinite(ours), np.isfinite(ref))
    fin = np.isfinite(ref)
    # scipy evaluates the same formula outside [0.3, 0.65] and a log1p form
    # inside it: the two agree to 5e-16 where the logit is small and to one
    # ULP where it is large
    gap = np.abs(ours[fin] - ref[fin])
    assert np.all(gap <= np.maximum(5e-16, np.spacing(np.abs(ref[fin]))))
    assert logit(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
