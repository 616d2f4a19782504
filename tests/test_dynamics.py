import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimask import DrcConfig, compress
from trimask.dynamics import DrcState


def test_ratio_one_is_pure_makeup():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, 3000)
    out = compress(x, DrcConfig(ratio=1.0, makeup_db=6.0))
    assert np.array_equal(out.samples, x * 10 ** (6.0 / 20.0))


def test_steady_sine_6db_over_threshold_ratio_4():
    # RMS level threshold + 6 dB; static curve predicts 6 * (1 - 1/4) = 4.5 dB cut
    cfg = DrcConfig(threshold_db=-18.0, ratio=4.0, attack_ms=5.0,
                    release_ms=50.0, makeup_db=0.0)
    amp = np.sqrt(2.0) * 10 ** ((-18.0 + 6.0) / 20.0)
    t = np.arange(16000)
    x = amp * np.sin(2 * np.pi * 1000.0 / 16000.0 * t)
    out = compress(x, cfg).samples
    tail = slice(12000, 16000)  # after envelope settling
    atten_db = 20 * np.log10(np.sqrt(np.mean(x[tail] ** 2))
                             / np.sqrt(np.mean(out[tail] ** 2)))
    assert atten_db == pytest.approx(4.5, abs=0.2)


def test_silence_passes_with_makeup():
    out = compress(np.zeros(1000), DrcConfig(makeup_db=3.0))
    assert np.array_equal(out.samples, np.zeros(1000))


def test_below_threshold_unity_gain():
    cfg = DrcConfig(threshold_db=-18.0, ratio=3.0)
    x = 0.01 * np.sin(2 * np.pi * 500 / 16000 * np.arange(8000))  # ~-43 dB RMS
    out = compress(x, cfg).samples
    assert np.allclose(out, x, atol=1e-12)


def test_zero_latency_causality():
    rng = np.random.default_rng(1)
    cfg = DrcConfig()
    x = rng.uniform(-0.8, 0.8, 2000)
    y = rng.uniform(-0.8, 0.8, 2000)
    split = 1200
    y[:split] = x[:split]
    a = compress(x, cfg).samples
    b = compress(y, cfg).samples
    assert np.array_equal(a[:split], b[:split])  # future edits cannot leak back


def test_static_curve_monotone_and_compressive():
    cfg = DrcConfig(threshold_db=-18.0, ratio=4.0, attack_ms=2.0, release_ms=20.0)
    t = np.arange(16000)
    levels_in = []
    levels_out = []
    for over_db in (0.0, 6.0, 12.0, 18.0):
        amp = np.sqrt(2.0) * 10 ** ((-18.0 + over_db) / 20.0)
        x = amp * np.sin(2 * np.pi * 997.0 / 16000.0 * t)
        out = compress(x, cfg).samples[12000:]
        levels_in.append(over_db)
        levels_out.append(20 * np.log10(np.sqrt(np.mean(out**2))))
    diffs_out = np.diff(levels_out)
    assert np.all(diffs_out > 0)          # monotone
    assert np.all(diffs_out < 6.0 / 3.9)  # slope ~1/ratio above threshold


def test_drc_config_validation():
    with pytest.raises(ValueError):
        DrcConfig(ratio=0.5)
    with pytest.raises(ValueError):
        DrcConfig(attack_ms=0.0)
    for name in ("threshold_db", "ratio", "attack_ms", "release_ms", "makeup_db"):
        for value in (math.nan, math.inf, -math.inf, "3", True, None):
            with pytest.raises(ValueError, match=name):
                DrcConfig(**{name: value})
    # numpy scalars are numbers like the built-ins, and a huge int is finite
    for value in (np.int64(3), np.float32(0.5), 10**400):
        assert DrcConfig(threshold_db=value).threshold_db == value
    for value in (np.float32("nan"), np.bool_(True)):
        with pytest.raises(ValueError, match="threshold_db"):
            DrcConfig(threshold_db=value)
    # 10^(makeup/20) overflows: rejected here, not as an OverflowError in compress
    with pytest.raises(ValueError, match="makeup_db"):
        DrcConfig(makeup_db=1e6)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), cuts=st.lists(st.integers(0, 3000), max_size=12))
def test_block_splits_equal_the_whole_signal_exactly(seed, cuts):
    # the carried follower and running power sum continue bit for bit
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.9, 0.9, 3000) * np.linspace(0.0, 1.0, 3000)
    cfg = DrcConfig(threshold_db=-24.0, ratio=4.0, attack_ms=1.0, release_ms=10.0)
    state = DrcState()
    blocks = [compress(b, cfg, state).samples for b in np.split(x, sorted(cuts))]
    assert np.array_equal(np.concatenate(blocks), compress(x, cfg).samples)
