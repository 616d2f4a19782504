import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trimask import (ConvSpec, UNetConfig, config_for_preset, config_from_json_dict,
                     config_to_json_dict, default_config, fuse_batchnorm,
                     load_weights, naive_infer, random_weights, save_weights,
                     split_head, validate_weights)
from trimask.masking import assemble_masks, quadrangle_decompose
from trimask.spectral import NRT_PRESET, RT_PRESET
from trimask.unet import (BN_EPS, IDENTITY_HEAD, WeightSet, conv_valid, conv_transposed_valid,
                          head, leaky)


def test_default_config_shapes():
    cfg = default_config()
    assert cfg.encoder_shapes() == [(253, 65), (125, 63), (61, 31), (29, 29),
                                    (13, 14), (5, 12)]
    assert cfg.decoder_shapes() == [(5, 12), (13, 14), (29, 29), (61, 31),
                                    (125, 63), (253, 65)]
    assert cfg.target_index == 60
    assert all(s.kernel_f == 5 for s in cfg.encoder)


def test_nrt_config_uses_even_kernel_where_needed():
    cfg = config_for_preset(NRT_PRESET)
    assert cfg.in_bins == 513
    assert cfg.lookahead_frames == 2  # 32 ms at 16 ms per frame
    assert cfg.encoder_shapes()[-1][0] >= 1
    kfs = [s.kernel_f for s in cfg.encoder]
    assert 6 in kfs  # parity fix on the even level
    assert cfg.decoder_shapes()[-1] == (513, 65)


def test_rt_preset_lookahead_frames():
    cfg = config_for_preset(RT_PRESET, lookahead_ms=32.0)
    assert cfg.lookahead_frames == 4  # 32 ms at 8 ms per frame


def test_config_validation_errors():
    bad = (ConvSpec(5, 3, 2, 1, 16),)
    with pytest.raises(ValueError, match="does not divide exactly"):
        UNetConfig(encoder=bad, decoder_channels=(16,), in_bins=254)
    # integer fields take integers, not floats, strings or bools
    for field, kwargs in [("'in_bins'", {"in_bins": 253.0}), ("'in_frames'", {"in_frames": "65"}),
                          ("'lookahead_frames'", {"lookahead_frames": True}),
                          ("'decoder_channels'", {"decoder_channels": (16.0,)}),
                          ("'decoder_channels'", {"decoder_channels": [16]})]:
        with pytest.raises(ValueError, match=field):
            UNetConfig(**{"encoder": bad, "decoder_channels": (16,), **kwargs})
    with pytest.raises(ValueError, match="'kernel_f'"):
        ConvSpec(kernel_f=5.0, kernel_t=3, stride_f=2, stride_t=1, out_ch=16)
    with pytest.raises(ValueError, match="'out_ch'"):
        ConvSpec(5, 3, 2, 1, None)
    # numpy integers and a huge int are integers; bools, floats and nan are not
    for value in (np.int64(3), 10**400):
        assert ConvSpec(5, 3, 2, 1, value).out_ch == value
    for value in (True, np.float32(0.5), float("nan"), 3.0):
        with pytest.raises(ValueError, match="'out_ch'"):
            ConvSpec(5, 3, 2, 1, value)


@pytest.mark.parametrize("spec,decoder_channels,match", [
    (ConvSpec(0, 3, 2, 1, 16), (16,), ">= 1"),
    (ConvSpec(5, 0, 2, 1, 16), (16,), ">= 1"),
    (ConvSpec(5, 3, 0, 1, 16), (16,), ">= 1"),
    (ConvSpec(5, 3, 2, 1, 0), (16,), ">= 1"),
    (ConvSpec(5, 3, 2, 1, 16), (0,), "decoder_channels must be >= 1"),
    (ConvSpec(5, 3, 2, 1, 16), (16, 16), "one width per encoder level"),
])
def test_config_rejects_sizes_below_one(spec, decoder_channels, match):
    with pytest.raises(ValueError, match=match):
        UNetConfig(encoder=(spec,), decoder_channels=decoder_channels, in_bins=253)


def test_decoder_mirrors_encoder_with_skip_widths():
    cfg = default_config()
    assert cfg.decoder == (
        ConvSpec(5, 3, 2, 1, 64), ConvSpec(5, 3, 2, 2, 48),
        ConvSpec(5, 3, 2, 1, 32), ConvSpec(5, 3, 2, 2, 16),
        ConvSpec(5, 3, 2, 1, 16))
    # enc1 reads the features, each later layer the one before; dec1 reads the
    # bottleneck, each later decoder layer the previous output plus its skip
    # (64 + 64, 48 + 48, 32 + 32, 16 + 16)
    assert cfg.in_channels == (5, 16, 32, 48, 64, 80, 128, 96, 64, 32)


@pytest.mark.parametrize("lookahead_ms", [float("inf"), float("-inf"), float("nan")])
def test_config_for_preset_rejects_non_finite_lookahead(lookahead_ms):
    with pytest.raises(ValueError, match="lookahead_ms must be finite"):
        config_for_preset(RT_PRESET, lookahead_ms=lookahead_ms)


def test_config_json_round_trip():
    cfg = default_config()
    assert config_from_json_dict(config_to_json_dict(cfg)) == cfg


def test_conv_valid_against_direct_loops():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 11, 9))
    w = rng.standard_normal((4, 3, 3, 2))
    b = rng.standard_normal(4)
    y = conv_valid(x, w, b, sf=2, st=1)
    assert y.shape == (4, 5, 8)
    for o in range(4):
        for f in range(5):
            for t in range(8):
                acc = b[o]
                for c in range(3):
                    for i in range(3):
                        for j in range(2):
                            acc += w[o, c, i, j] * x[c, 2 * f + i, t + j]
                assert y[o, f, t] == pytest.approx(acc, abs=1e-12)


def test_conv_transposed_against_direct_loops():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    y = conv_transposed_valid(x, w, b, sf=2, st=2)
    assert y.shape == (3, 9, 11)
    ref = np.zeros((3, 9, 11))
    ref += b[:, None, None]
    for c in range(2):
        for f in range(4):
            for t in range(5):
                for o in range(3):
                    for i in range(3):
                        for j in range(3):
                            ref[o, 2 * f + i, 2 * t + j] += w[o, c, i, j] * x[c, f, t]
    assert np.allclose(y, ref, atol=1e-12)


def test_transposed_inverts_conv_shapes():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 29, 31))
    w = rng.standard_normal((4, 2, 5, 3))
    down = conv_valid(x, w, np.zeros(4), sf=2, st=2)
    up = conv_transposed_valid(down, rng.standard_normal((2, 4, 5, 3)), np.zeros(2), 2, 2)
    assert up.shape == x.shape


def test_fuse_batchnorm_identity():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    # var + BN_EPS is exactly 1.0, so the fold scales by exactly 1
    w2, b2 = fuse_batchnorm(w, b, gamma=np.ones(4), beta=np.zeros(4),
                            mean=np.zeros(4), var=np.full(4, 1.0 - BN_EPS))
    assert np.array_equal(w2, w)
    assert np.array_equal(b2, b)


def test_fuse_batchnorm_gamma_two_doubles():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((4, 2, 3, 3))
    b = rng.standard_normal(4)
    w2, b2 = fuse_batchnorm(w, b, gamma=np.full(4, 2.0), beta=np.zeros(4),
                            mean=np.zeros(4), var=np.full(4, 1.0 - BN_EPS))
    assert np.allclose(w2, 2.0 * w)
    assert np.allclose(b2, 2.0 * b)


def test_fuse_batchnorm_matches_sequential():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.standard_normal((6, 3, 3, 3))
        b = rng.standard_normal(6)
        gamma = rng.uniform(0.5, 2.0, 6)
        beta = rng.standard_normal(6)
        mean = rng.standard_normal(6)
        var = rng.uniform(0.2, 3.0, 6)
        x = rng.standard_normal((3, 16, 12))
        raw = conv_valid(x, w, b, 1, 1)
        seq = (raw - mean[:, None, None]) / np.sqrt(var + 1e-5)[:, None, None]
        seq = gamma[:, None, None] * seq + beta[:, None, None]
        wf, bf = fuse_batchnorm(w, b, gamma, beta, mean, var)
        fused = conv_valid(x, wf, bf, 1, 1)
        assert np.max(np.abs(fused - seq)) < 1e-6


def test_fuse_batchnorm_channel_mismatch():
    with pytest.raises(ValueError, match="channel-count mismatch"):
        fuse_batchnorm(np.zeros((4, 2, 3, 3)), np.zeros(4), np.ones(3),
                       np.zeros(3), np.zeros(3), np.ones(3))


def test_naive_infer_zero_weights_yields_head_bias():
    cfg = default_config()
    weights = random_weights(cfg, 0, dtype=np.float64)
    for name in list(weights.tensors):
        weights.tensors[name] = np.zeros_like(weights.tensors[name])
    weights.tensors["head.bias"] = np.arange(10.0)
    feats = np.random.default_rng(0).standard_normal((5, 65, 253))
    ld, ln = split_head(naive_infer(feats, weights, cfg)[:, None])
    assert np.all(ld.z_k == 0.0)
    assert np.all(ld.z_notk == 1.0)
    assert np.all(ld.beta_logit == 2.0)
    assert np.all(ln.z_k == 5.0)
    assert np.all(ln.q1 == 9.0)


def test_naive_infer_golden_regression():
    cfg = default_config()
    w = random_weights(cfg, 2024, dtype=np.float64)
    feats = np.random.default_rng(99).standard_normal((5, 65, 253))
    ld, ln = split_head(naive_infer(feats, w, cfg)[:, None])
    idx = [0, 60, 126, 200, 252]
    np.testing.assert_allclose(
        ld.z_k[0, idx],
        [-0.09423048, -0.13314445, -0.14248669, -0.1211255, -0.09773363],
        atol=1e-8)
    np.testing.assert_allclose(
        ld.beta_logit[0, idx],
        [-0.05291313, -0.0417647, -0.03597686, -0.00485538, -0.06600226],
        atol=1e-8)
    np.testing.assert_allclose(
        ln.q0[0, idx],
        [0.02260099, 0.0496275, 0.05792757, 0.07894088, 0.03060892],
        atol=1e-8)
    np.testing.assert_allclose(
        ln.z_notk[0, idx],
        [0.08724839, 0.1552023, 0.10104855, 0.11228602, 0.06979832],
        atol=1e-8)


def test_naive_infer_head_linearity():
    cfg = default_config()
    w = random_weights(cfg, 5, dtype=np.float64)
    feats = np.random.default_rng(1).standard_normal((5, 65, 253))
    base_d, base_n = split_head(naive_infer(feats, w, cfg)[:, None])
    w2 = w.astype(np.float64)
    w2.tensors["head.weight"] = 2.0 * w2.tensors["head.weight"]
    w2.tensors["head.bias"] = 2.0 * w2.tensors["head.bias"]
    doubled_d, doubled_n = split_head(naive_infer(feats, w2, cfg)[:, None])
    assert np.allclose(doubled_d.z_k, 2.0 * base_d.z_k, atol=1e-12)
    assert np.allclose(doubled_n.beta_logit, 2.0 * base_n.beta_logit, atol=1e-12)


def test_identity_head_passes_mixture_to_direct():
    grids = np.tile(IDENTITY_HEAD[:, None, None], (1, 3, 7))
    field_d, field_n = (assemble_masks(lg) for lg in split_head(grids))
    assert np.all(field_d.mask_k == 1.0)
    assert np.all(field_n.mask_k == 0.0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    y_d, y_r, y_n = quadrangle_decompose(X, field_d, field_n)
    assert np.array_equal(y_d, X)
    assert np.all(y_r == 0.0)
    assert np.all(y_n == 0.0)


def test_split_head_returns_channel_views():
    head = np.arange(10.0 * 2 * 3).reshape(10, 2, 3)
    ld, ln = split_head(head)
    assert ld.shape == ln.shape == (2, 3)
    assert np.shares_memory(ld.z_k, head) and np.shares_memory(ln.q1, head)
    assert np.array_equal(ln.z_k, head[5])
    with pytest.raises(ValueError, match="head channels"):
        split_head(head[:9])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bins", [253, 513])
def test_head_on_one_frame_equals_that_column_of_the_window_call(dtype, bins):
    # integer operands make every sum exact, so the comparison checks the
    # layout and bias and not how BLAS orders a dot product at each width
    rng = np.random.default_rng(bins)
    weights = WeightSet({"head.weight": rng.integers(-8, 9, (10, 16, 1, 1)).astype(dtype),
                         "head.bias": rng.integers(-8, 9, 10).astype(dtype)})
    h = rng.integers(-8, 9, (16, bins, 65)).astype(dtype)
    window = head(h, weights)
    assert window.shape == (10, bins, 65) and window.dtype == dtype
    for t in range(65):
        assert np.array_equal(head(np.ascontiguousarray(h[:, :, t]), weights), window[:, :, t])


def test_naive_infer_shape_errors():
    cfg = default_config()
    w = random_weights(cfg, 0)
    with pytest.raises(ValueError, match="frames"):
        naive_infer(np.zeros((5, 64, 253)), w, cfg)
    with pytest.raises(ValueError, match="bins"):
        naive_infer(np.zeros((5, 65, 252)), w, cfg)


def test_weights_save_load_round_trip(tmp_path):
    cfg = default_config()
    w = random_weights(cfg, 9)
    path = tmp_path / "w.phmw"
    save_weights(path, w)
    back = load_weights(path, cfg)
    assert set(back.tensors) == set(w.tensors)
    for name in w.tensors:
        assert np.array_equal(back.tensors[name], w.tensors[name])


def test_weights_truncated_file(tmp_path):
    cfg = default_config()
    path = tmp_path / "w.phmw"
    save_weights(path, random_weights(cfg, 9))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_weights(path)


def test_weights_version_1_file_still_loads(tmp_path):
    # a version 1 file is the version 2 layout without the trailing checksum
    cfg = default_config()
    w = random_weights(cfg, 9)
    path = tmp_path / "w.phmw"
    save_weights(path, w)
    raw = bytearray(path.read_bytes()[:-4])
    raw[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    back = load_weights(path, cfg)
    assert set(back.tensors) == set(w.tensors)
    for name in w.tensors:
        assert np.array_equal(back.tensors[name], w.tensors[name])


@pytest.mark.parametrize("version", [1, 2])
def test_weights_trailing_bytes_rejected(tmp_path, version):
    path = tmp_path / "w.phmw"
    save_weights(path, random_weights(default_config(), 9))
    raw = bytearray(path.read_bytes())
    if version == 1:
        raw[4:8] = (1).to_bytes(4, "little")
        del raw[-4:]
    path.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_weights(path)


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.phmw"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        load_weights(path)


def test_weights_shape_mismatch_names_layer(tmp_path):
    cfg = default_config()
    w = random_weights(cfg, 9)
    w.tensors["enc3.weight"] = w.tensors["enc3.weight"][:, :, :3, :]
    path = tmp_path / "w.phmw"
    save_weights(path, w)
    with pytest.raises(ValueError, match="shape mismatch: enc3.weight"):
        load_weights(path, cfg)


def test_weights_non_finite_tensor_rejected_at_load(tmp_path):
    cfg = default_config()
    w = random_weights(cfg, 9)
    w.tensors["dec4.bias"][3] = np.nan
    path = tmp_path / "w.phmw"
    save_weights(path, w)
    with pytest.raises(ValueError, match="non-finite values in tensor dec4.bias"):
        load_weights(path, cfg)


def test_validate_weights_missing_tensor():
    cfg = default_config()
    w = random_weights(cfg, 9)
    del w.tensors["dec2.bias"]
    with pytest.raises(ValueError, match="missing tensor: dec2.bias"):
        validate_weights(cfg, w)


def test_leaky_slope():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(leaky(x), [-0.02, 0.0, 3.0])


_FUZZ_CFG = UNetConfig(encoder=(ConvSpec(1, 1, 1, 1, 2),), decoder_channels=(2,),
                       in_bins=3, in_frames=2, lookahead_frames=0)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_weight_file_loads_or_is_a_value_error(tmp_path, data):
    # one to three byte flips, truncations or insertions anywhere in the file;
    # the checksum makes every changed file a ValueError
    path = tmp_path / "w.phmw"
    save_weights(path, random_weights(_FUZZ_CFG, 5))
    original = path.read_bytes()
    raw = bytearray(original)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        if kind == "flip" and raw:
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        elif kind == "truncate":
            del raw[data.draw(st.integers(0, len(raw))):]
        elif kind == "insert":
            pos = data.draw(st.integers(0, len(raw)))
            raw[pos:pos] = data.draw(st.binary(min_size=1, max_size=8))
    path.write_bytes(bytes(raw))
    if bytes(raw) != original:
        with pytest.raises(ValueError):
            load_weights(path, _FUZZ_CFG)
    else:
        assert isinstance(load_weights(path, _FUZZ_CFG), WeightSet)
