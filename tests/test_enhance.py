import numpy as np
import pytest

from trimask import (DrcConfig, WeightSet, enhance, istft, oracle_reconstruct,
                     random_weights, restore_low_bins, sample_scenario, si_sdr,
                     stft, trim_low_bins)
from trimask.masking import LOGIT_CLAMP
from trimask.spectral import RT_PRESET
from trimask.unet import config_for_preset


def _band_limited_signal(seed, n=14000):
    """Content strictly above the 4-bin trim cutoff (93.75 Hz)."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000.0
    x = np.zeros(n)
    for f in (220.0, 450.0, 1300.0, 2750.0):
        x += rng.uniform(0.1, 0.3) * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.28))
    return x


def _pass_through_weights(cfg):
    """Zero network; head biases force mask_d = 1 and mask_n = 0."""
    w = random_weights(cfg, 0, dtype=np.float64)
    tensors = {name: np.zeros_like(t) for name, t in w.tensors.items()}
    tensors["head.bias"] = np.array(
        [LOGIT_CLAMP, -LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0,
         -LOGIT_CLAMP, LOGIT_CLAMP, -LOGIT_CLAMP, 0.0, 1.0])
    return WeightSet(tensors, provenance="pass-through")


@pytest.fixture(scope="module")
def rt_setup():
    cfg = config_for_preset(RT_PRESET)
    return RT_PRESET, cfg


def test_pass_through_weights_reproduce_input_no_trim():
    # with no bin trim the pass-through masks reproduce the full round trip
    from trimask import StftConfig

    stft_cfg = StftConfig(512, 128, 512, discard_low_bins=0)
    cfg = config_for_preset(stft_cfg)
    x = _band_limited_signal(0)
    result = enhance(x, _pass_through_weights(cfg), cfg, stft_cfg,
                     mode="causal-stream", reverb_gain_db=float("-inf"))
    roundtrip = istft(stft(x, stft_cfg), stft_cfg, length=len(x)).samples
    assert np.max(np.abs(result.remixed.samples - roundtrip)) \
        <= 1e-6 * np.max(np.abs(roundtrip))
    assert np.max(np.abs(result.noise.samples)) <= 1e-9
    assert np.max(np.abs(result.reverb.samples)) <= 1e-9


def test_pass_through_weights_rt_preset(rt_setup):
    # with the rt preset the reference is the engine's own front end
    # (trimmed bins are zeroed by design)
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(0)
    result = enhance(x, _pass_through_weights(cfg), cfg, stft_cfg,
                     mode="causal-stream", reverb_gain_db=float("-inf"))
    spec = restore_low_bins(trim_low_bins(stft(x, stft_cfg), 4), 4)
    reference = istft(spec, stft_cfg, length=len(x)).samples
    assert np.max(np.abs(result.remixed.samples - reference)) \
        <= 1e-9 * np.max(np.abs(reference))


def test_component_closure_any_weights(rt_setup):
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(1)
    weights = random_weights(cfg, 31, dtype=np.float64)
    result = enhance(x, weights, cfg, stft_cfg, mode="causal-stream")
    resum = result.direct.samples + result.reverb.samples + result.noise.samples
    spec = restore_low_bins(trim_low_bins(stft(x, stft_cfg), 4), 4)
    reference = istft(spec, stft_cfg, length=len(x)).samples
    assert np.linalg.norm(resum - reference) <= 1e-6 * np.linalg.norm(reference)
    # interior samples also match the untrimmed round trip up to the (tiny)
    # spectral leakage of the band-limited test signal into the trimmed bins
    full = istft(stft(x, stft_cfg), stft_cfg, length=len(x)).samples
    w = stft_cfg.window_size
    interior = slice(w, len(x) - w)
    assert np.linalg.norm(resum[interior] - full[interior]) \
        <= 1e-3 * np.linalg.norm(full[interior])


def test_backend_equivalence_end_to_end(rt_setup):
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(2, n=12000)
    weights = random_weights(cfg, 7, dtype=np.float64)
    causal = enhance(x, weights, cfg, stft_cfg, mode="causal-stream")
    windowed = enhance(x, weights, cfg, stft_cfg, mode="noncausal-window")
    assert causal.frames_emitted == windowed.frames_emitted > 0
    for a, b in ((causal.direct, windowed.direct), (causal.noise, windowed.noise),
                 (causal.remixed, windowed.remixed)):
        assert np.max(np.abs(a.samples - b.samples)) < 1e-10


def test_remix_gain_zero_is_component_sum(rt_setup):
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(3, n=10000)
    weights = random_weights(cfg, 9, dtype=np.float64)
    result = enhance(x, weights, cfg, stft_cfg, reverb_gain_db=0.0)
    expected = result.direct.samples + result.reverb.samples
    assert np.max(np.abs(result.remixed.samples - expected)) \
        <= 1e-6 * max(np.max(np.abs(expected)), 1e-12)


def test_enhance_short_signal_has_no_emissions(rt_setup):
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(4, n=3000)  # fewer than 65 frames
    result = enhance(x, random_weights(cfg, 5, dtype=np.float64), cfg, stft_cfg)
    assert result.frames_emitted == 0
    # identity masks: output is the front-end round trip
    roundtrip = istft(restore_low_bins(trim_low_bins(stft(x, stft_cfg), 4), 4),
                      stft_cfg, length=len(x)).samples
    assert np.allclose(result.direct.samples, roundtrip, atol=1e-9)


def test_enhance_with_drc_runs(rt_setup):
    stft_cfg, cfg = rt_setup
    x = _band_limited_signal(5, n=10000)
    result = enhance(x, _pass_through_weights(cfg), cfg, stft_cfg,
                     drc=DrcConfig(makeup_db=0.0))
    assert len(result.remixed) == len(x)
    assert result.op_report.overall_reduction >= 0.80


def test_enhance_rejects_unknown_mode(rt_setup):
    stft_cfg, cfg = rt_setup
    with pytest.raises(ValueError, match="mode"):
        enhance(np.zeros(8000), random_weights(cfg, 0), cfg, stft_cfg, mode="batch")


def test_enhance_rejects_non_finite_signal_before_stft(rt_setup, monkeypatch):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with a non-finite signal")

    stft_cfg, cfg = rt_setup
    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    x = _band_limited_signal(6, n=8000)
    x[4000] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        enhance(x, random_weights(cfg, 0), cfg, stft_cfg)


@pytest.mark.parametrize("gain", [float("nan"), float("inf"), 7000.0])
def test_enhance_rejects_bad_reverb_gain_before_stft(rt_setup, monkeypatch, gain):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with a bad reverb gain")

    stft_cfg, cfg = rt_setup
    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    with pytest.raises(ValueError, match="reverb_gain_db"):
        enhance(_band_limited_signal(6, n=8000), random_weights(cfg, 0), cfg, stft_cfg,
                reverb_gain_db=gain)


@pytest.mark.parametrize("mode", ["causal-stream", "noncausal-window"])
def test_enhance_rejects_non_finite_head_logits(rt_setup, monkeypatch, mode):
    import trimask.masking

    stft_cfg, cfg = rt_setup
    tensors = dict(random_weights(cfg, 0).tensors)
    tensors["head.bias"] = tensors["head.bias"].copy()
    tensors["head.bias"][7] = np.inf  # noise beta_logit
    validated = []
    post_init = trimask.masking.MaskLogits.__post_init__

    def counted(self):
        validated.append(self.shape)
        post_init(self)

    monkeypatch.setattr(trimask.masking.MaskLogits, "__post_init__", counted)
    with pytest.raises(ValueError, match="finite"):
        enhance(_band_limited_signal(7, n=9000), WeightSet(tensors), cfg, stft_cfg, mode=mode)
    # the direct pair passes and the noise pair fails, each checked once over
    # the whole grid rather than once per emitted frame
    assert len(validated) == 2


def test_oracle_reconstruction_high_si_sdr():
    stft_cfg = RT_PRESET
    guard = stft_cfg.window_size
    for seed in (100, 101, 102):
        truth = sample_scenario(seed)
        sig_d, sig_r, sig_n = oracle_reconstruct(truth, stft_cfg)
        interior = slice(guard, len(truth.x) - guard)
        assert si_sdr(truth.y_d.samples[interior], sig_d.samples[interior]) >= 50.0
        assert si_sdr(truth.y_n.samples[interior], sig_n.samples[interior]) >= 50.0
        assert si_sdr(truth.y_r.samples[interior], sig_r.samples[interior]) >= 50.0
