import math

import numpy as np
import pytest
from scipy.stats import kstest

from trimask import (RirParams, ScenarioRanges, mix, sample_scenario, synth_rir,
                     tail_envelope)
from trimask.simulate import REFLECTION_GAP


def test_rir_direct_impulse():
    h_d, h_r = synth_rir(RirParams(direct_delay=0, t60=0.3, tail_length=100,
                                   direct_gain=1.0, seed=0))
    assert h_d[0] == 1.0
    assert np.count_nonzero(h_d) == 1
    assert np.all(h_r[:REFLECTION_GAP] == 0.0)  # disjoint supports


def test_rir_supports_disjoint():
    params = RirParams(direct_delay=10, t60=0.4, tail_length=500, seed=1)
    h_d, h_r = synth_rir(params)
    assert np.all(h_d[h_r != 0.0] == 0.0)
    assert np.all(h_r[h_d != 0.0] == 0.0)


def test_tail_envelope_60db_at_t60():
    params = RirParams(direct_delay=0, t60=0.25, tail_length=8000, seed=0)
    env = tail_envelope(params)
    idx = int(params.t60 * 16000)
    drop_db = 20 * np.log10(env[idx] / env[0])
    assert drop_db == pytest.approx(-60.0, abs=0.1)


def test_rir_vanishing_t60_silences_tail():
    # envelope falls below 1e-6 within one sample of the direct arrival
    params = RirParams(direct_delay=4, t60=1e-4, tail_length=1000, seed=3)
    _, h_r = synth_rir(params)
    assert float(np.dot(h_r, h_r)) < 1e-10


def test_rir_param_validation():
    with pytest.raises(ValueError):
        RirParams(t60=0.0)
    with pytest.raises(ValueError):
        RirParams(tail_length=0)
    for name in ("t60", "direct_gain"):
        for value in (math.nan, math.inf, -math.inf, "0.3", True):
            with pytest.raises(ValueError, match=name):
                RirParams(**{name: value})
    for name in ("direct_delay", "tail_length", "seed"):
        for value in (2.5, 1.0, "16", False):
            with pytest.raises(ValueError, match=name):
                RirParams(**{name: value})


def test_mix_snr_zero_balances_energies():
    rng = np.random.default_rng(0)
    dry = rng.standard_normal(8000)
    noise = rng.standard_normal(20000)
    h_d, h_r = synth_rir(RirParams(direct_delay=8, t60=0.2, tail_length=2000, seed=5))
    truth = mix(dry, h_d, h_r, noise, snr_db=0.0)
    rev = truth.y_d.samples + truth.y_r.samples
    e_sig = np.dot(rev, rev)
    e_noise = np.dot(truth.y_n.samples, truth.y_n.samples)
    assert abs(e_sig - e_noise) <= 1e-9 * e_sig


def test_mix_realized_snr_matches_request():
    rng = np.random.default_rng(1)
    dry = rng.standard_normal(8000)
    noise = rng.standard_normal(20000)
    h_d, h_r = synth_rir(RirParams(seed=6))
    for snr in (-10.0, 3.7, 25.0):
        truth = mix(dry, h_d, h_r, noise, snr_db=snr)
        rev = truth.y_d.samples + truth.y_r.samples
        realized = 10 * np.log10(np.dot(rev, rev)
                                 / np.dot(truth.y_n.samples, truth.y_n.samples))
        assert realized == pytest.approx(snr, abs=1e-6)


def test_mix_high_snr_cap_behaviour():
    rng = np.random.default_rng(2)
    dry = rng.standard_normal(4000)
    noise = rng.standard_normal(10000)
    h_d, _ = synth_rir(RirParams(direct_delay=0, t60=0.2, tail_length=100, seed=7))
    truth = mix(dry, h_d, np.zeros_like(h_d), noise, snr_db=200.0)
    assert np.all(truth.y_r.samples == 0.0)
    err = truth.x.samples - truth.y_d.samples
    assert np.linalg.norm(err) < 1e-9 * np.linalg.norm(truth.y_d.samples)


def test_mix_component_closure_bit_exact():
    truth = sample_scenario(3)
    resum = truth.y_d.samples + truth.y_r.samples + truth.y_n.samples
    assert np.array_equal(truth.x.samples, resum)


def test_mix_degenerate_errors():
    h_d, h_r = synth_rir(RirParams(seed=8))
    with pytest.raises(ValueError, match="degenerate SNR"):
        mix(np.zeros(4000), h_d, h_r, np.ones(20000), 0.0)
    with pytest.raises(ValueError, match="degenerate SNR"):
        mix(np.ones(4000), h_d, h_r, np.zeros(20000), 0.0)
    with pytest.raises(ValueError, match="noise too short"):
        mix(np.ones(4000), h_d, h_r, np.ones(10), 0.0)


def test_convolution_linearity():
    rng = np.random.default_rng(4)
    dry = rng.standard_normal(4000)
    noise = rng.standard_normal(20000)
    h_d, h_r = synth_rir(RirParams(seed=9))
    a = mix(dry, h_d, h_r, noise, 5.0)
    b = mix(3.0 * dry, h_d, h_r, noise, 5.0)
    assert np.max(np.abs(b.y_d.samples - 3.0 * a.y_d.samples)) \
        <= 1e-9 * np.max(np.abs(a.y_d.samples))


def test_scenario_determinism():
    a = sample_scenario(42)
    b = sample_scenario(42)
    assert np.array_equal(a.x.samples, b.x.samples)
    assert a.snr_db == b.snr_db and a.t60 == b.t60
    c = sample_scenario(43)
    assert not np.array_equal(a.x.samples, c.x.samples)


def test_scenario_segment_length_is_2s():
    truth = sample_scenario(0)
    for sig in (truth.x, truth.y_d, truth.y_r, truth.y_n):
        assert len(sig) == 32000


def test_scenario_overrides():
    truth = sample_scenario(5, snr_db=7.5, t60=0.33)
    assert truth.snr_db == 7.5
    assert truth.t60 == 0.33
    rev = truth.y_d.samples + truth.y_r.samples
    realized = 10 * np.log10(np.dot(rev, rev) / np.dot(truth.y_n.samples, truth.y_n.samples))
    assert realized == pytest.approx(7.5, abs=1e-6)


def test_scenario_snr_distribution_uniform():
    ranges = ScenarioRanges(segment_samples=6400)
    snrs = np.array([sample_scenario(10_000 + i, ranges).snr_db for i in range(1000)])
    assert snrs.min() >= -10.0 and snrs.max() <= 30.0
    assert snrs.min() < -8.0 and snrs.max() > 28.0  # spans the range
    stat = kstest(snrs, "uniform", args=(-10.0, 40.0)).statistic
    assert stat < 0.05


def test_scenario_ranges_validation():
    with pytest.raises(ValueError):
        ScenarioRanges(snr_db=(10.0, -10.0))
    with pytest.raises(ValueError):
        ScenarioRanges(t60=(-0.1, 0.5))
    for name in ("snr_db", "t60"):
        for bad in ((math.nan, 1.0), (0.1, math.inf), (0.5,), (0.1, 0.5, 0.9), ("0.1", 0.5),
                    [0.1, 0.5], 0.5):
            with pytest.raises(ValueError, match=name):
                ScenarioRanges(**{name: bad})
    with pytest.raises(ValueError, match="segment_samples"):
        ScenarioRanges(segment_samples=6400.0)
