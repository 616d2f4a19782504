import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trimask import (ConvSpec, DrcConfig, MixtureTruth, SignalBuffer, StftConfig,
                     StreamingEnhancer, UNetConfig, WeightSet, assemble_masks, enhance, istft,
                     oracle_fit, oracle_reconstruct, quadrangle_decompose, random_weights,
                     restore_low_bins, sample_scenario, si_sdr, stft, trim_low_bins)
from trimask.enhance import _BLOCK_FRAMES
from trimask.masking import LOGIT_CLAMP
from trimask.spectral import NRT_PRESET, RT_PRESET
from trimask.unet import config_for_preset

COMPONENTS = ("direct", "reverb", "noise", "remixed")

# a small U-Net on the rt preset's 253 bins, for tests that run many streams
_SMALL_RT_CFG = UNetConfig(encoder=(ConvSpec(5, 3, 2, 1, 4), ConvSpec(5, 3, 2, 2, 4)),
                           decoder_channels=(4, 4), in_bins=253, in_frames=9,
                           lookahead_frames=2)
# a small STFT and a U-Net on its 64 bins, so that a short signal spans many frames
_TINY_STFT = StftConfig(window_size=128, hop_size=32, discard_low_bins=1)
_TINY_CFG = UNetConfig(encoder=(ConvSpec(4, 3, 2, 1, 4), ConvSpec(5, 3, 2, 2, 6)),
                       decoder_channels=(4, 4), in_bins=64, in_frames=9, lookahead_frames=2)


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
    return WeightSet(tensors)


@pytest.fixture(scope="module")
def rt_setup():
    cfg = config_for_preset(RT_PRESET)
    return RT_PRESET, cfg


def test_pass_through_weights_reproduce_input_no_trim():
    # with no bin trim the pass-through masks reproduce the full round trip
    from trimask import StftConfig

    stft_cfg = StftConfig(512, 128, discard_low_bins=0)
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


@pytest.mark.parametrize("mode", ["causal-stream", "noncausal-window"])
def test_backend_is_called_once_per_frame_through_module_globals(monkeypatch, mode):
    # the benchmark times each stream_push / unet_forward call that enhance
    # looks up in its module, so one call must be one frame: every ingested
    # frame is a push, every emitted frame one windowed forward pass
    E = importlib.import_module("trimask.enhance")
    calls = {"stream_push": 0, "unet_forward": 0, "heads": 0}

    def counted(name):
        fn = getattr(E, name)

        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            calls["heads"] += out is not None
            return out
        monkeypatch.setattr(E, name, wrapper)

    counted("stream_push")
    counted("unet_forward")
    weights = random_weights(_SMALL_RT_CFG, 2, dtype=np.float64)
    for n in (1200, 16000, 40000):  # fewer frames than a window, one block, three blocks
        calls.update(dict.fromkeys(calls, 0))
        result = enhance(_band_limited_signal(8, n=n), weights, _SMALL_RT_CFG, RT_PRESET,
                         mode=mode)
        total = result.frames_total
        assert result.frames_emitted == max(0, total - (_SMALL_RT_CFG.in_frames - 1))
        if mode == "causal-stream":
            expected = {"stream_push": total, "unet_forward": 0}
        else:
            expected = {"stream_push": 0, "unet_forward": result.frames_emitted}
        assert calls == {**expected, "heads": result.frames_emitted}


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
    # finite weights whose noise beta_logit overflows to inf wherever it is positive
    big = np.finfo(np.float32).max
    tensors["head.weight"] = tensors["head.weight"].copy()
    tensors["head.weight"][7] = big
    tensors["head.bias"] = tensors["head.bias"].copy()
    tensors["head.bias"][7] = big
    validated = []
    post_init = trimask.masking.MaskLogits.__post_init__

    def counted(self):
        validated.append(self.shape)
        post_init(self)

    def unreachable(*args, **kwargs):
        raise AssertionError("the mask stage ran on non-finite logits")

    monkeypatch.setattr(trimask.masking.MaskLogits, "__post_init__", counted)
    monkeypatch.setattr(importlib.import_module("trimask.enhance"), "assemble_masks",
                        unreachable)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        enhance(_band_limited_signal(7, n=9000), WeightSet(tensors), cfg, stft_cfg, mode=mode)
    # both pairs are checked once, together, over the call's whole grid rather
    # than once per emitted frame, before the mask stage
    assert len(validated) == 1 and validated[0][0] == 2


def _cut_dec5_kernel_t(tensors):
    tensors["dec5.weight"] = tensors["dec5.weight"][:, :, :, :2]


def _nan_in_enc3_bias(tensors):
    tensors["enc3.bias"] = tensors["enc3.bias"].copy()
    tensors["enc3.bias"][1] = np.nan


@pytest.mark.parametrize("mode", ["causal-stream", "noncausal-window"])
@pytest.mark.parametrize("corrupt,match", [
    (_cut_dec5_kernel_t, "shape mismatch: dec5.weight"),
    (_nan_in_enc3_bias, "non-finite values in tensor enc3.bias"),
])
def test_enhance_rejects_bad_weights_before_stft(rt_setup, monkeypatch, mode, corrupt, match):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with bad weights")

    stft_cfg, cfg = rt_setup
    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    tensors = dict(random_weights(cfg, 0).tensors)
    corrupt(tensors)
    with pytest.raises(ValueError, match=match):
        enhance(_band_limited_signal(6, n=8000), WeightSet(tensors), cfg, stft_cfg, mode=mode)


@pytest.mark.parametrize("mode", ["causal-stream", "noncausal-window"])
def test_weights_are_validated_once_per_enhance_and_per_cli_clip(tmp_path, monkeypatch, mode):
    from trimask import cli, save_weights, write_wav

    calls = []
    original = importlib.import_module("trimask.unet").validate_weights

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name in ("trimask.unet", "trimask.streaming", "trimask.enhance"):
        monkeypatch.setattr(importlib.import_module(name), "validate_weights", counted)
    x = _band_limited_signal(4, n=9000)
    enhance(x, random_weights(_SMALL_RT_CFG, 1), _SMALL_RT_CFG, RT_PRESET, mode=mode)
    assert len(calls) == 1
    write_wav(tmp_path / "in.wav", x)
    save_weights(tmp_path / "w.phmw", random_weights(config_for_preset(RT_PRESET), 1))
    cli_mode = "causal" if mode == "causal-stream" else "noncausal"
    for source in (["--weights", str(tmp_path / "w.phmw")], ["--seed", "1"]):
        calls.clear()
        assert cli.main(["enhance", "--input", str(tmp_path / "in.wav"), "--output",
                         str(tmp_path / "out.wav"), "--mode", cli_mode, *source]) == 0
        assert len(calls) == 1


def test_enhance_rejects_bin_mismatch_before_stft(monkeypatch):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with mismatched bins")

    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    cfg = config_for_preset(NRT_PRESET)  # 513 bins against rt's 253
    with pytest.raises(ValueError, match="513 bins"):
        enhance(_band_limited_signal(6, n=8000), random_weights(cfg, 0), cfg, RT_PRESET)


@pytest.mark.parametrize("mode", ["causal-stream", "noncausal-window"])
def test_enhance_runs_a_network_with_kernel_t_below_stride_t(mode):
    # a stride-2 layer with kernel_t 1 leaves decoder frames that no input
    # frame reaches; they keep their bias, as in naive_infer
    cfg = UNetConfig(encoder=(ConvSpec(3, 1, 1, 2, 4),), decoder_channels=(4,), in_bins=9,
                     in_frames=65, lookahead_frames=1)
    x = np.random.default_rng(0).standard_normal(4000)
    weights = random_weights(cfg, 0, dtype=np.float64)
    other = "noncausal-window" if mode == "causal-stream" else "causal-stream"
    result, reference = (enhance(x, weights, cfg, StftConfig(16, 4), mode=m) for m in (mode, other))
    assert result.frames_emitted == result.frames_total - (cfg.in_frames - 1) > 0
    for c in COMPONENTS:
        assert np.max(np.abs(getattr(result, c).samples - getattr(reference, c).samples)) < 1e-10


def _stream(engine, x, cuts):
    """Run `x` through `engine` split at `cuts`; the concatenated outputs.
    Each chunk comes in a buffer that is overwritten once `process` returns."""
    parts = []
    for chunk in np.split(x, cuts):
        buffer = chunk.copy()
        parts.append(engine.process(buffer))
        buffer[:] = 0.0
    parts.append(engine.flush())
    return {c: np.concatenate([getattr(p, c) for p in parts]) for c in COMPONENTS}


def _cuts(rng, n, max_chunk):
    sizes = rng.integers(1, max_chunk + 1, size=n // max_chunk * 2 + 2)
    return [c for c in np.cumsum(sizes) if c < n]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(_TINY_STFT.window_size, 2500), seed=st.integers(0, 2**16),
       max_chunk=st.one_of(st.integers(1, 40), st.integers(1, 2500)),
       mode=st.sampled_from(["causal-stream", "noncausal-window"]), drc=st.booleans())
def test_streaming_enhancer_equals_enhance_for_any_chunking(n, seed, max_chunk, mode, drc):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, n)
    weights = random_weights(_TINY_CFG, seed, dtype=np.float64)
    args = (weights, _TINY_CFG, _TINY_STFT, mode, -6.0, DrcConfig() if drc else None)
    engine = StreamingEnhancer(*args)
    streamed = _stream(engine, x, _cuts(rng, n, min(max_chunk, n)))
    whole = enhance(x, *args)
    assert (engine.frames_total, engine.frames_emitted) == \
        (whole.frames_total, whole.frames_emitted)
    for c in COMPONENTS:
        assert streamed[c].shape == (n,)
        assert np.max(np.abs(streamed[c] - getattr(whole, c).samples)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.one_of(st.integers(RT_PRESET.window_size, 4000), st.integers(16000, 3 * 16000)),
       seed=st.integers(0, 2**16),
       scale=st.sampled_from([0.0, 0.1, 1.0, 30.0, 1e4]), chunks=st.integers(1, 6))
def test_components_close_on_the_round_trip_for_any_weights(n, seed, scale, chunks):
    # large scales saturate the sigmoids, the beta clip and the sign argmax
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 0.3
    w = random_weights(_SMALL_RT_CFG, seed, dtype=np.float64)
    weights = WeightSet({k: v * scale for k, v in w.tensors.items()})
    engine = StreamingEnhancer(weights, _SMALL_RT_CFG, RT_PRESET)
    parts = _stream(engine, x, sorted(rng.integers(0, n, size=chunks - 1)))
    resum = parts["direct"] + parts["reverb"] + parts["noise"]
    n_trim = RT_PRESET.discard_low_bins
    spec = restore_low_bins(trim_low_bins(stft(x, RT_PRESET), n_trim), n_trim)
    reference = istft(spec, RT_PRESET, length=n).samples
    assert np.linalg.norm(resum - reference) <= 1e-6 * np.linalg.norm(reference)


def test_streaming_enhancer_rejects_short_streams_and_reuse():
    engine = StreamingEnhancer(random_weights(_TINY_CFG, 0), _TINY_CFG, _TINY_STFT)
    assert len(engine.process(np.zeros(100)).direct) == 0
    with pytest.raises(ValueError, match="insufficient samples"):
        engine.flush()
    with pytest.raises(ValueError, match="flushed"):
        engine.process(np.zeros(200))


def test_enhance_memory_does_not_grow_with_length():
    # tracemalloc peak beyond the result's own bytes, at 4 s and at 16 s; a
    # one-layer network keeps the pushes cheap under tracemalloc
    cfg = UNetConfig(encoder=(ConvSpec(5, 2, 2, 1, 2),), decoder_channels=(2,),
                     in_bins=253, in_frames=2, lookahead_frames=1)
    weights = random_weights(cfg, 3, dtype=np.float64)
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 16 * 16000)
    extra = []
    for seconds in (4, 16):
        tracemalloc.start()
        result = enhance(x[: seconds * 16000], weights, cfg, RT_PRESET)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        extra.append(peak - sum(getattr(result, c).samples.nbytes for c in COMPONENTS))
        del result
    assert extra[1] <= 1.5 * extra[0], extra


def _random_truth(seed, n):
    rng = np.random.default_rng(seed)
    y_d, y_r, y_n = rng.uniform(-0.5, 0.5, (3, n)) * np.linspace(0.2, 1.0, n)
    return MixtureTruth(x=SignalBuffer(y_d + y_r + y_n), y_d=SignalBuffer(y_d),
                        y_r=SignalBuffer(y_r), y_n=SignalBuffer(y_n), snr_db=0.0)


def _one_shot_oracle_reconstruct(truth, stft_cfg):
    """oracle_reconstruct as one whole-signal pass, the reference its blocks
    must equal bit for bit."""
    X = stft(truth.x, stft_cfg).bins
    stack = np.empty((3, *X.shape), dtype=complex)
    for row, y in zip(stack[::2], (truth.y_d, truth.y_n)):
        assemble_masks(oracle_fit(X, stft(y, stft_cfg)), out=row)
    quadrangle_decompose(X, stack)
    return istft(stack, stft_cfg, length=len(truth.x))


def _block_edges(stft_cfg):
    """One window, each length within one sample of completing a block's
    last frame or the next block's first frame, and past three blocks."""
    hop, window = stft_cfg.hop_size, stft_cfg.window_size
    return [window] + [k * _BLOCK_FRAMES * hop + window + d for k in (1, 2, 3)
                       for d in (-hop - 1, -hop, -hop + 1, -1, 0, 1)] + [
        (3 * _BLOCK_FRAMES + 2) * hop + window]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("stft_cfg", [RT_PRESET, NRT_PRESET], ids=["rt", "nrt"])
def test_oracle_reconstruct_blocks_equal_one_whole_signal_pass(stft_cfg, data, seed):
    edges = _block_edges(stft_cfg)
    truth = _random_truth(seed, data.draw(st.integers(edges[0], edges[-1])))
    got = np.stack([s.samples for s in oracle_reconstruct(truth, stft_cfg)])
    assert np.array_equal(got, _one_shot_oracle_reconstruct(truth, stft_cfg))


@pytest.mark.parametrize("stft_cfg", [RT_PRESET, NRT_PRESET], ids=["rt", "nrt"])
def test_oracle_reconstruct_blocks_equal_one_whole_signal_pass_at_block_edges(stft_cfg):
    for n in _block_edges(stft_cfg):
        truth = _random_truth(n, n)
        got = np.stack([s.samples for s in oracle_reconstruct(truth, stft_cfg)])
        assert np.array_equal(got, _one_shot_oracle_reconstruct(truth, stft_cfg)), n


@pytest.mark.parametrize("target", ["y_d", "y_n"])
@pytest.mark.parametrize("delta", [-1, 1, 4000])
def test_oracle_reconstruct_rejects_unequal_lengths_before_stft(monkeypatch, target, delta):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with unequal lengths")

    truth = _random_truth(0, 8000)
    setattr(truth, target, SignalBuffer(_random_truth(1, 8000 + delta).x))
    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    with pytest.raises(ValueError, match=f"length mismatch: .*{8000 + delta}"):
        oracle_reconstruct(truth, RT_PRESET)


def test_oracle_reconstruct_rejects_signals_shorter_than_a_window(monkeypatch):
    import trimask.spectral

    def unreachable(*args, **kwargs):
        raise AssertionError("spectral.stft reached with a short signal")

    monkeypatch.setattr(trimask.spectral, "stft", unreachable)
    with pytest.raises(ValueError, match="insufficient samples: need at least 512, got 511"):
        oracle_reconstruct(_random_truth(0, 511), RT_PRESET)


def test_oracle_reconstruct_memory_does_not_grow_with_length():
    # tracemalloc peak beyond the result's own bytes, at 4 s and at 16 s
    extra = []
    for seconds in (4, 16):
        truth = _random_truth(2, seconds * 16000)
        tracemalloc.start()
        parts = oracle_reconstruct(truth, RT_PRESET)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        extra.append(peak - sum(p.samples.nbytes for p in parts))
        del parts
    assert extra[1] <= 1.5 * extra[0], extra


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
