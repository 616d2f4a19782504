import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logit as scipy_logit

from trimask import (MaskLogits, assemble_masks, oracle_fit, quadrangle_decompose, remix,
                     split_head)
from trimask.masking import LOGIT_CLAMP
from trimask.unet import IDENTITY_HEAD

from .test_acceptance import law_of_cosines_masks


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


def _beta_logit(beta):
    """The beta_logit whose unclipped beta is ``beta``."""
    return math.log(math.expm1(beta - 1.0))


def _masked(X, mask_k):
    """(Y_d, Y_r, Y_n) of X with ``mask_k`` as the direct mask and the
    identity noise mask 0, through quadrangle_decompose."""
    stack = np.zeros((3, *X.shape), dtype=complex)
    stack[0] = mask_k
    return quadrangle_decompose(X, stack)


def test_magnitude_masks_balanced_case():
    # sigma = 0.5, beta = 1 + softplus(0): two equal sides beta/2
    mask_k = assemble_masks(_logits())[0, 0]
    assert abs(mask_k) == pytest.approx(0.84657359, abs=1e-7)
    assert abs(mask_k) == pytest.approx((1.0 + math.log(2.0)) / 2.0, abs=1e-15)
    assert abs(1.0 - mask_k) == pytest.approx(abs(mask_k), abs=1e-15)


def test_magnitude_masks_clip_at_sigma_09():
    # sigma = 0.9, raw beta = 3: clip bound 1/0.8 = 1.25, a collinear triangle
    mask_k = assemble_masks(_logits(z_k=math.log(9.0), beta_logit=_beta_logit(3.0)))[0, 0]
    assert mask_k.real == pytest.approx(1.125, abs=1e-12)
    assert mask_k.imag == 0.0
    assert abs(1.0 - mask_k) == pytest.approx(0.125, abs=1e-12)


def test_magnitude_masks_full_assignment_limit():
    mask_k = assemble_masks(_logits(z_k=500.0, z_notk=-500.0, beta_logit=3.0))[0, 0]
    assert mask_k == 1.0 + 0.0j  # clip forces beta -> 1
    assert 1.0 - mask_k == 0.0


def test_magnitude_masks_invariants_fuzz():
    rng = np.random.default_rng(0)
    logits = _random_logits(rng, (200, 200), spread=8.0)
    mask_k = assemble_masks(logits)
    _, _, mag_k, mag_notk, beta, _ = law_of_cosines_masks(logits)
    # the sides of the closed form's triangle are beta*sigma and beta*(1 - sigma)
    assert np.allclose(np.abs(mask_k), mag_k, rtol=1e-12, atol=1e-12)
    assert np.allclose(np.abs(1.0 - mask_k), mag_notk, rtol=1e-12, atol=1e-12)
    assert np.all(beta >= 1.0)
    assert np.all(np.abs(np.abs(mask_k) - np.abs(1.0 - mask_k)) <= 1.0 + 1e-9)


def test_gumbel_sign_deterministic():
    # the rotation sign is the hard argmax of (q0, q1): -1 where q0 > q1, ties +1
    imag = [assemble_masks(_logits(q0=q0, q1=q1))[0, 0].imag
            for q0, q1 in ((2.0, 1.0), (1.0, 1.0), (0.0, 3.0))]
    assert imag[0] < 0.0 < imag[1] == imag[2] == -imag[0]


def test_phase_factors_equilateral():
    # sigma = 0.5 with beta = 2 gives two unit masks at +/-60 degrees
    mask_k = assemble_masks(_logits(beta_logit=_beta_logit(2.0)))[0, 0]
    assert mask_k == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-15)
    assert 1.0 - mask_k == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-15)


def test_phase_factors_3_4_5_triangle():
    # sides 0.6 and 0.8 over the unit side: a right angle between them
    lg = _logits(z_k=math.log(0.6 / 0.8), beta_logit=_beta_logit(1.4))
    mask_k = assemble_masks(lg)[0, 0]
    assert mask_k == pytest.approx(0.6 * (0.6 + 0.8j), abs=1e-12)
    assert 1.0 - mask_k == pytest.approx(0.8 * (0.8 - 0.6j), abs=1e-12)


def test_phase_factors_collinear_degenerate():
    # beta = 1 (sides 0.8 and 0.2 along the unit side): the phase vanishes
    mask_k = assemble_masks(_logits(z_k=math.log(4.0), beta_logit=-500.0))[0, 0]
    assert mask_k.real == pytest.approx(0.8, abs=1e-15)
    assert abs(mask_k.imag) < 1e-100


def test_apply_mask_identity_and_shape_check():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 30)) + 1j * rng.standard_normal((20, 30))
    # masks go straight into a strided view of the synthesis stack
    stack = np.full((3, 20, 30), np.nan, dtype=complex)
    identity = split_head(np.tile(IDENTITY_HEAD[:, None, None], (1, 20, 30)))
    assert np.shares_memory(assemble_masks(identity, out=stack[::2]), stack)
    y_d, y_r, y_n = quadrangle_decompose(X, stack)
    assert np.array_equal(y_d, X)
    assert np.all(y_n == 0) and np.all(y_r == 0)
    assert np.shares_memory(y_r, stack)
    with pytest.raises(ValueError, match="shape mismatch"):
        quadrangle_decompose(X[:, :10], stack)
    with pytest.raises(ValueError, match="shape mismatch"):
        assemble_masks(identity, out=stack[:2, :, :10])


def test_apply_mask_closure_fuzz():
    # the closed form's Y_k and the reference's Y_notk sum back to X
    rng = np.random.default_rng(2)
    X = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    logits = _random_logits(rng, (100, 100), spread=6.0)
    y_k = _masked(X, assemble_masks(logits))[0]
    y_notk = law_of_cosines_masks(logits)[1] * X
    assert np.max(np.abs(y_k + y_notk - X)) < 1e-6 * np.max(np.abs(X))


def test_assemble_masks_60_degree_pair():
    # both pairs at once: a leading pair axis, and xi = -1 conjugates
    lg = MaskLogits(z_k=np.zeros((2, 1)), z_notk=np.zeros((2, 1)),
                    beta_logit=np.full((2, 1), _beta_logit(2.0)),
                    q0=np.array([[0.0], [1.0]]), q1=np.array([[1.0], [0.0]]))
    mask_k = assemble_masks(lg)
    assert mask_k.shape == (2, 1)
    assert mask_k[0, 0] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-12)
    assert mask_k[1, 0] == pytest.approx(np.exp(-1j * np.pi / 3), abs=1e-12)


def test_assemble_masks_full_assignment():
    assert assemble_masks(_logits(z_k=500.0, z_notk=-500.0, beta_logit=2.0))[0, 0] == 1.0
    assert assemble_masks(_logits(z_k=-500.0, z_notk=500.0, beta_logit=2.0))[0, 0] == 0.0


def test_assemble_masks_closure_fuzz():
    rng = np.random.default_rng(42)
    logits = _random_logits(rng, (400, 250), spread=10.0)
    closure = assemble_masks(logits) + law_of_cosines_masks(logits)[1] - 1.0
    assert np.max(np.abs(closure)) < 1e-6


_LOGIT = st.floats(-12.0, 12.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[_LOGIT] * 5), min_size=1, max_size=64),
       st.integers(1, 4), st.integers(1, 5))
# z_k - z_notk subnormal: 1/|2*sigma - 1| would overflow
@example(bins=[(0.0, 2.2250738585072014e-309, 0.0, 0.0, 0.0)], frames=1, width=1)
def test_closed_form_matches_law_of_cosines_reference(bins, frames, width):
    logits = MaskLogits(*np.array(bins).T)
    mask_k = assemble_masks(logits)
    ref_k, _, _, _, beta, beta_raw = law_of_cosines_masks(logits)
    assert np.all(np.abs(mask_k - ref_k) <= 1e-6 * np.maximum(1.0, np.abs(ref_k)))
    # where beta was clipped (clear of rounding at the bound), the triangle
    # is collinear and the imaginary part exactly 0
    clipped = beta_raw > beta * (1.0 + 1e-9)
    assert np.all(mask_k.imag[clipped] == 0.0)
    # the identity head passes the mixture to direct and nothing to noise
    identity = assemble_masks(split_head(np.tile(IDENTITY_HEAD[:, None, None],
                                                 (1, frames, width))))
    assert np.all(identity[0] == 1.0 + 0.0j) and np.all(identity[1] == 0.0j)
    assert not np.any(np.signbit(identity.imag))


def test_assemble_masks_extreme_beta_logit_stays_finite():
    # unclipped beta = 1 + 1e300 at sigma = 0.5: beta^2 - 1 overflows as a
    # product, but the imaginary part sqrt(s*(2 + s))/2 is about 5e299
    s = 1e300
    mask_k = assemble_masks(_logits(beta_logit=s))[0, 0]
    assert mask_k.real == 0.5
    assert mask_k.imag == pytest.approx(math.sqrt(s) * math.sqrt(2.0 + s) / 2.0, rel=1e-12)


def test_xi_flip_conjugates_masks():
    rng = np.random.default_rng(7)
    lg = _random_logits(rng, (50, 50))
    plus = assemble_masks(MaskLogits(lg.z_k, lg.z_notk, lg.beta_logit,
                                     np.zeros_like(lg.q0), np.ones_like(lg.q1)))
    minus = assemble_masks(MaskLogits(lg.z_k, lg.z_notk, lg.beta_logit,
                                      np.ones_like(lg.q0), np.zeros_like(lg.q1)))
    assert np.array_equal(minus, np.conj(plus))


def test_quadrangle_identity_and_closure():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    stack = np.empty((3, 40, 40), dtype=complex)
    assemble_masks(_logits(z_k=500.0, z_notk=-500.0, shape=(40, 40)), out=stack[0])
    assemble_masks(_logits(z_k=-500.0, z_notk=500.0, shape=(40, 40)), out=stack[2])
    y_d, y_r, y_n = quadrangle_decompose(X, stack)
    assert np.array_equal(y_d, X)
    assert np.all(y_n == 0)
    assert np.all(y_r == 0)

    assemble_masks(_random_logits(rng, (2, 40, 40)), out=stack[::2])
    y_d, y_r, y_n = quadrangle_decompose(X, stack)
    # fourth side: exact by construction (one floating subtraction per part)
    assert np.array_equal(y_r, (X - y_d) - y_n)
    assert np.max(np.abs(y_d + y_r + y_n - X)) < 1e-12 * np.max(np.abs(X))


def test_oracle_fit_pass_through():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    X[0, :3] = [0.0, 1e-9, -1e-8j]  # |X| <= EPS_DEG: pass-through defaults
    y_k = _masked(X, assemble_masks(oracle_fit(X, X)))[0]
    assert np.max(np.abs(y_k - X)) < 1e-6 * np.max(np.abs(X))
    assert np.array_equal(assemble_masks(oracle_fit(X, 0.5 * X))[0, :3], [1.0, 1.0, 1.0])


def test_oracle_fit_half_mixture():
    X = np.array([[3.0 - 4.0j]])
    lg = oracle_fit(X, X / 2.0)
    assert lg.z_k[0, 0] == 0.0  # sigma = 1/2
    assert lg.beta_logit[0, 0] == -500.0  # beta = 1: collinear
    mask_k = assemble_masks(lg)[0, 0]
    assert mask_k == pytest.approx(0.5 + 0j, abs=1e-12)
    assert abs(1.0 - mask_k) == pytest.approx(0.5, abs=1e-12)


def test_oracle_fit_random_round_trip():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 120)) + 1j * rng.standard_normal((200, 120))
    Y = (rng.standard_normal((200, 120)) + 1j * rng.standard_normal((200, 120))) * 1.5
    mask_k = assemble_masks(oracle_fit(X, Y))
    y_k = _masked(X, mask_k)[0]
    assert np.max(np.abs(y_k - Y) / np.abs(X)) < 1e-6
    assert np.max(np.abs((1.0 - mask_k) * X - (X - Y)) / np.abs(X)) < 1e-6


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


def test_logit_matches_scipy():
    # oracle_fit's z_k = log a - log b is scipy's logit(a/(a + b)), clamped
    rng = np.random.default_rng(1)
    X = rng.standard_normal((300, 200)) + 1j * rng.standard_normal((300, 200))
    Y = X * rng.uniform(0.0, 1.0, X.shape) * np.exp(1j * rng.uniform(-0.5, 0.5, X.shape))
    Y[0, :2] = [0.0, X[0, 1]]  # a = 0 and b = 0: clamped to -/+LOGIT_CLAMP
    a, b = np.abs(Y / X), np.abs(1.0 - Y / X)
    ref = np.clip(scipy_logit(a / (a + b)), -LOGIT_CLAMP, LOGIT_CLAMP)
    z_k = oracle_fit(X, Y).z_k
    assert z_k[0, :2].tolist() == [-LOGIT_CLAMP, LOGIT_CLAMP]
    assert np.all(np.abs(z_k - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
