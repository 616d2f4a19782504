import json
from fractions import Fraction

import numpy as np
import pytest

from trimask import ConvSpec, UNetConfig, count_ops, default_config, measured_ops


def _single_layer_config(kernel_t=1, stride_t=1):
    """One-level mirrored U-Net (encoder, decoder, head) of 1-bin kernels."""
    enc = (ConvSpec(kernel_f=1, kernel_t=kernel_t, stride_f=1, stride_t=stride_t, out_ch=8),)
    return UNetConfig(encoder=enc, decoder_channels=(6,), in_bins=253, in_frames=65,
                      lookahead_frames=0)


def test_single_1x1_layer_reduction_is_64_65_exact():
    report = count_ops(_single_layer_config())
    layer = report.layers[0]
    assert layer.naive_mults == 65 * 253 * 5 * 8
    assert layer.streaming_mults == 253 * 5 * 8
    assert Fraction(report.streaming_total, report.naive_total) == Fraction(1, 65)
    assert report.overall_reduction == pytest.approx(64.0 / 65.0, abs=1e-15)


def test_full_temporal_kernel_gives_zero_reduction():
    report = count_ops(_single_layer_config(kernel_t=65))
    assert report.layers[0].naive_mults == report.layers[0].streaming_mults
    assert report.layers[0].reduction == 0.0


def test_full_unet_of_1x1_layers_keeps_64_65():
    cfg = UNetConfig(encoder=(ConvSpec(1, 1, 1, 1, 8),), decoder_channels=(6,),
                     in_bins=253, in_frames=65, lookahead_frames=0)
    report = count_ops(cfg)
    assert Fraction(report.streaming_total, report.naive_total) == Fraction(1, 65)


def test_default_architecture_reduction_at_least_80pct():
    report = count_ops(default_config())
    assert report.overall_reduction >= 0.80


def test_analytic_equals_instrumented_default_config():
    cfg = default_config()
    report = count_ops(cfg)
    naive_m, stream_m = measured_ops(cfg)
    for layer in report.layers:
        assert naive_m[layer.name] == layer.naive_mults
        assert stream_m[layer.name] == layer.streaming_mults


def test_analytic_equals_instrumented_random_configs():
    rng = np.random.default_rng(123)
    for trial in range(5):
        # random mirrored config with exact arithmetic
        depth = int(rng.integers(1, 4))
        strides = [int(rng.integers(1, 3)) for _ in range(depth)]
        frames = 1
        for s in reversed(strides):
            frames = (frames - 1) * s + 3
        enc = []
        chans = [6, 8, 10]
        for i, s in enumerate(strides):
            enc.append(ConvSpec(kernel_f=1, kernel_t=3, stride_f=1, stride_t=s, out_ch=chans[i]))
        cfg = UNetConfig(encoder=tuple(enc), decoder_channels=(6,) * depth,
                         in_bins=7, in_frames=frames,
                         lookahead_frames=int(rng.integers(0, min(4, frames))))
        report = count_ops(cfg)
        naive_m, stream_m = measured_ops(cfg, seed=trial)
        for layer in report.layers:
            assert naive_m[layer.name] == layer.naive_mults, layer.name
            assert stream_m[layer.name] == layer.streaming_mults, layer.name


def test_report_serialization():
    report = count_ops(default_config())
    text = report.to_text()
    assert "enc1" in text and "total" in text
    data = json.loads(report.to_json())
    assert data["naive_total"] == report.naive_total
    assert 0.0 <= data["overall_reduction"] <= 1.0
    assert all(0.0 <= l["reduction"] <= 1.0 for l in data["layers"])
