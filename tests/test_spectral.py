import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimask import (NRT_PRESET, PRESETS, RT_PRESET, StftConfig, extract_features, istft,
                     restore_low_bins, stft, trim_low_bins)
from trimask.spectral import EPS_MAG, OverlapAdd
from trimask.types import ComplexSpectrogram


def _direct_dft_frame(x, win):
    """O(N^2) DFT oracle for one windowed frame."""
    xw = x * win
    n = np.arange(len(xw))
    bins = np.zeros(len(xw) // 2 + 1, dtype=complex)
    for k in range(len(bins)):
        bins[k] = np.sum(xw * np.exp(-2j * np.pi * k * n / len(xw)))
    return bins


def test_stft_zero_signal_shapes():
    spec = stft(np.zeros(1024), RT_PRESET)
    assert spec.bins.shape == (5, 257)
    assert np.all(spec.bins == 0)


def test_stft_too_short_errors():
    with pytest.raises(ValueError, match="insufficient samples"):
        stft(np.zeros(511), RT_PRESET)


def test_stft_cosine_at_bin_center_against_direct_dft():
    cfg = RT_PRESET
    fs = 16000
    freq = 32 * fs / cfg.window_size  # exactly bin 32
    n = np.arange(4096)
    x = np.cos(2 * np.pi * freq / fs * n)
    spec = stft(x, cfg)
    mag = np.abs(spec.bins)
    for t in range(len(spec.bins)):
        peak = mag[t, 32]
        assert peak == mag[t].max()
        outside = np.concatenate([mag[t, :30], mag[t, 35:]])
        assert 20 * np.log10(peak / outside.max()) >= 40.0

    win = cfg.window
    oracle = _direct_dft_frame(x[: cfg.window_size], win)
    assert np.max(np.abs(spec.bins[0] - oracle)) < 1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("cfg", [RT_PRESET, NRT_PRESET])
def test_stft_parseval(cfg):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(cfg.window_size * 3)
    win = cfg.window
    spec = stft(x, cfg)
    for t in range(len(spec.bins)):
        xw = x[t * cfg.hop_size : t * cfg.hop_size + cfg.window_size] * win
        time_energy = cfg.window_size * np.sum(xw**2)
        b = spec.bins[t]
        freq_energy = (np.abs(b[0]) ** 2 + np.abs(b[-1]) ** 2
                       + 2 * np.sum(np.abs(b[1:-1]) ** 2))
        assert abs(time_energy - freq_energy) <= 1e-6 * time_energy


@pytest.mark.parametrize("cfg", [RT_PRESET, NRT_PRESET])
def test_istft_round_trip_interior(cfg):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16000)
    y = istft(stft(x, cfg), cfg, length=len(x)).samples
    w = cfg.window_size
    err = y[w:-w] - x[w:-w]
    snr = 10 * np.log10(np.sum(x[w:-w] ** 2) / np.sum(err**2 + 1e-300))
    assert snr >= 120.0
    assert np.linalg.norm(err) <= 1e-6 * np.linalg.norm(x[w:-w])


def test_istft_zero_spectrogram():
    spec = stft(np.zeros(2048), RT_PRESET)
    assert np.all(istft(spec, RT_PRESET).samples == 0)


def test_istft_shape_mismatch_errors():
    spec = trim_low_bins(stft(np.zeros(2048), RT_PRESET), 4)
    with pytest.raises(ValueError, match="shape mismatch"):
        istft(spec, RT_PRESET)
    # a streamed call returns only its finished samples, so a length is an error
    with pytest.raises(ValueError, match="length"):
        istft(stft(np.zeros(2048), RT_PRESET), RT_PRESET, length=100,
              carry=OverlapAdd(RT_PRESET))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(preset=st.sampled_from(sorted(PRESETS)), seed=st.integers(0, 2**16),
       cuts=st.lists(st.integers(0, 24), max_size=8))
def test_istft_block_splits_equal_the_whole_signal_exactly(preset, seed, cuts):
    # the carried overlap sums continue bit for bit, and a (3, T, F) stack
    # through one carry equals each grid through its own
    cfg = PRESETS[preset]
    rng = np.random.default_rng(seed)
    shape = (3, 24, cfg.bin_count)
    bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    carry = OverlapAdd(cfg)
    blocks = [istft(b, cfg, carry=carry) for b in np.split(bins, sorted(cuts), axis=1)]
    stacked = np.concatenate(blocks + [carry.finish()], axis=-1)
    assert np.array_equal(istft(bins, cfg), stacked)
    for grid, row in zip(bins, stacked):
        own = OverlapAdd(cfg)
        blocks = [istft(ComplexSpectrogram(b), cfg, carry=own).samples
                  for b in np.split(grid, sorted(cuts))]
        whole = istft(ComplexSpectrogram(grid), cfg).samples
        assert np.array_equal(np.concatenate(blocks + [own.finish()]), whole)
        assert np.array_equal(row, whole)


def test_istft_single_frame_impulse_against_inverse_dft():
    # one stft frame of an interior impulse: istft recovers the impulse on
    # the window's support, and irfft of the frame is the windowed impulse
    cfg = RT_PRESET
    x = np.zeros(cfg.window_size)
    x[200] = 1.0
    spec = stft(x, cfg)
    assert len(spec.bins) == 1
    win = cfg.window
    frame = np.fft.irfft(spec.bins[0], n=cfg.window_size)
    assert np.allclose(frame, win * x, atol=1e-12)
    y = istft(spec, cfg).samples
    support = win > 1e-6
    assert np.allclose(y[support], x[support], atol=1e-10)


def test_trim_low_bins():
    spec = stft(np.random.default_rng(0).standard_normal(2048), RT_PRESET)
    trimmed = trim_low_bins(spec, 4)
    assert trimmed.bin_count == 253
    assert np.array_equal(trimmed.bins, spec.bins[:, 4:])
    same = trim_low_bins(spec, 0)
    assert np.array_equal(same.bins, spec.bins)
    assert not np.shares_memory(same.bins, spec.bins)
    with pytest.raises(ValueError):
        trim_low_bins(spec, 257)
    with pytest.raises(ValueError, match="n must be >= 0"):
        trim_low_bins(spec, -3)


def test_restore_low_bins_round_trip():
    spec = stft(np.random.default_rng(1).standard_normal(2048), RT_PRESET)
    back = restore_low_bins(trim_low_bins(spec, 4), 4)
    assert back.bin_count == 257
    assert np.all(back.bins[:, :4] == 0)
    assert np.array_equal(back.bins[:, 4:], spec.bins[:, 4:])
    same = restore_low_bins(spec, 0)
    assert np.array_equal(same.bins, spec.bins)
    assert not np.shares_memory(same.bins, spec.bins)
    with pytest.raises(ValueError, match="n must be >= 0"):
        restore_low_bins(spec, -1)
    # a (3, T, F) stack restores each grid as its own call does
    stack = np.stack([spec.bins, 2j * spec.bins, -spec.bins])[:, :, 4:]
    assert np.array_equal(restore_low_bins(stack, 4),
                          [restore_low_bins(ComplexSpectrogram(g), 4).bins for g in stack])


def test_trim_restore_is_projection():
    spec = stft(np.random.default_rng(2).standard_normal(2048), RT_PRESET)
    once = restore_low_bins(trim_low_bins(spec, 4), 4)
    twice = restore_low_bins(trim_low_bins(once, 4), 4)
    assert np.array_equal(once.bins, twice.bins)


def test_stft_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4096)
    y = rng.standard_normal(4096)
    a, b = 0.7, -1.3
    lhs = stft(a * x + b * y, RT_PRESET).bins
    rhs = a * stft(x, RT_PRESET).bins + b * stft(y, RT_PRESET).bins
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))


def test_features_unit_magnitude_log_channel():
    spec = ComplexSpectrogram(bins=np.ones((4, 253), dtype=complex))
    feats = extract_features(spec, RT_PRESET)
    assert np.allclose(feats[0], np.log(1 + EPS_MAG))


@pytest.mark.parametrize("bin_idx", [32, 33, 37])
def test_features_demodulation_constant_for_tone(bin_idx):
    # demodulation removes the hop-induced per-frame phase advance
    # 2*pi*f*hop/fft of a tone at a bin center
    cfg = RT_PRESET
    fs = 16000
    n = np.arange(8192)
    x = np.cos(2 * np.pi * (bin_idx * fs / cfg.window_size) / fs * n + 0.41)
    spec = trim_low_bins(stft(x, cfg), 4)
    feats = extract_features(spec, cfg)
    col = bin_idx - 4
    assert np.ptp(feats[1][:, col]) < 1e-6
    assert np.ptp(feats[2][:, col]) < 1e-6
    # raw phase does advance between frames for off-multiple advances
    expected_advance = 2 * np.pi * bin_idx * cfg.hop_size / cfg.window_size
    if abs(np.angle(np.exp(1j * expected_advance))) > 1e-6:
        phases = np.angle(spec.bins[:, col])
        assert np.ptp(phases) > 1e-3


@pytest.mark.parametrize("cfg", [RT_PRESET, NRT_PRESET])
def test_features_demodulation_does_not_drift_with_stream_position(cfg):
    # against the ramp reduced to whole cycles in exact integers
    first = 10**8
    spec = trim_low_bins(stft(np.random.default_rng(12).standard_normal(4096), cfg),
                         cfg.discard_low_bins)
    feats = extract_features(spec, cfg, first)
    t = np.arange(first, first + len(spec.bins))
    f_phys = np.arange(cfg.bin_count - spec.bin_count, cfg.bin_count)
    cycles = np.outer(cfg.hop_size * t, f_phys) % cfg.window_size
    demod = np.angle(spec.bins) - 2 * np.pi * cycles / cfg.window_size
    assert np.allclose(feats[1], np.cos(demod), rtol=0, atol=1e-12)
    assert np.allclose(feats[2], np.sin(demod), rtol=0, atol=1e-12)


def test_features_zero_spectrogram_conventions():
    spec = ComplexSpectrogram(bins=np.zeros((6, 253), dtype=complex))
    ch = extract_features(spec, RT_PRESET)
    assert np.allclose(ch[0], np.log(EPS_MAG))
    assert np.all(ch[1] == 1.0)
    assert np.all(ch[2] == 0.0)
    assert np.all(ch[3] == 0.0)
    assert np.all(ch[4] == 0.0)


def test_features_derive_physical_bins_from_the_width():
    # trimming twice drops the same low bins as trimming once
    spec = stft(np.random.default_rng(10).standard_normal(4096), RT_PRESET)
    twice = extract_features(trim_low_bins(trim_low_bins(spec, 1), 3), RT_PRESET)
    once = extract_features(trim_low_bins(spec, 4), RT_PRESET)
    assert np.array_equal(twice, once)
    # a trimmed grid's features are the untrimmed ones' columns; rt's
    # demodulation repeats every 4 bins, so only n = 1..3 see the offset
    full = extract_features(spec, RT_PRESET)
    for n in (1, 2, 3):
        part = extract_features(trim_low_bins(spec, n), RT_PRESET)
        # the group delay's first column has no lower neighbour left
        assert np.allclose(part[[0, 1, 2, 4]], full[[0, 1, 2, 4], :, n:], rtol=0, atol=1e-12)
        assert np.allclose(part[3, :, 1:], full[3, :, n + 1:], rtol=0, atol=1e-12)
    wide = ComplexSpectrogram(bins=np.ones((4, RT_PRESET.bin_count + 1), dtype=complex))
    with pytest.raises(ValueError, match="258 bins"):
        extract_features(wide, RT_PRESET)


def test_features_shapes_and_unit_circle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(16000)
    spec = trim_low_bins(stft(x, RT_PRESET), 4)
    feats = extract_features(spec, RT_PRESET)
    assert feats.shape == (5, len(spec.bins), spec.bin_count)
    radius = feats[1] ** 2 + feats[2] ** 2
    assert np.max(np.abs(radius - 1.0)) <= 1e-6


@pytest.mark.parametrize("cfg", [RT_PRESET, NRT_PRESET, StftConfig(255, 5), StftConfig(1, 1)])
def test_window_is_scipys_periodic_hann(cfg):
    from scipy.signal import get_window

    assert cfg.window.tobytes() == get_window("hann", cfg.window_size, fftbins=True).tobytes()
    assert cfg.window is cfg.window
    # a derived value: read-only, and outside == and the hash
    with pytest.raises(ValueError):
        cfg.window[0] = 1.0
    twin = StftConfig(cfg.window_size, cfg.hop_size, cfg.discard_low_bins)
    assert twin == cfg and hash(twin) == hash(cfg)


def test_stftconfig_validation():
    with pytest.raises(ValueError):
        StftConfig(window_size=512, hop_size=100)
    for match, args in [("hop_size", (512, 0)), ("hop_size", (512, -128)),
                        ("window_size", (0, 128)), ("'window_size'", (512.0, 128)),
                        ("'hop_size'", (512, "128")), ("'discard_low_bins'", (512, 128, 4.0))]:
        with pytest.raises(ValueError, match=match):
            StftConfig(*args)
    assert RT_PRESET.bin_count == 257
    assert NRT_PRESET.bin_count == 513


def test_shipped_preset_parameters():
    from trimask.spectral import PRESETS

    rt = PRESETS["rt"]
    assert (rt.window_size, rt.hop_size, rt.discard_low_bins) == (512, 128, 4)
    nrt = PRESETS["nrt"]
    assert (nrt.window_size, nrt.hop_size, nrt.discard_low_bins) == (1024, 256, 0)
    assert rt.bin_count - rt.discard_low_bins == 253
