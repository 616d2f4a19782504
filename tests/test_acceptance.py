"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances are pinned here exactly as stated; runtime budgets are asserted
where the criterion states one.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from scipy.special import expit

from trimask import (MaskLogits, assemble_masks, count_ops, default_config,
                     emphasized_loss, fuse_batchnorm, istft, loss_gradient,
                     measured_ops, multiscale_loss,
                     naive_infer, oracle_fit, oracle_reconstruct,
                     phase_distance, quadrangle_decompose, random_weights,
                     required_queues, sample_scenario, si_sdr, stft, write_wav)
from trimask.cli import main as cli_main
from trimask.losses import final_loss
from trimask.spectral import NRT_PRESET, RT_PRESET
from trimask.streaming import StreamState, stream_push
from trimask.unet import ConvSpec, UNetConfig, conv_valid


def _report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def law_of_cosines_masks(logits: MaskLogits):
    """Reference mask pair by the law-of-cosines route that the closed form
    in ``trimask.masking`` replaced, kept here as its independent check.

    sigma = expit(z_k - z_notk); beta = 1 + softplus(beta_logit), clipped
    by 1/|2*sigma - 1| where that gap exceeds 1e-8; mag_k = beta*sigma and
    mag_notk = beta - mag_k; cos = (1 + a^2 - b^2)/(2a) clipped to [-1, 1]
    and sin = sqrt(1 - cos^2), with (1, 0) for sides below 1e-8; xi = -1
    where q0 > q1. Returns (mask_k, mask_notk, mag_k, mag_notk, beta,
    beta_raw).
    """
    sigma = expit(np.asarray(logits.z_k, dtype=np.float64) - logits.z_notk)
    beta_raw = 1.0 + np.logaddexp(0.0, np.asarray(logits.beta_logit, dtype=np.float64))
    gap = np.abs(2.0 * sigma - 1.0)
    bound = np.where(gap > 1e-8, 1.0 / np.maximum(gap, 1e-8), np.inf)
    beta = np.minimum(beta_raw, bound)
    mag_k = beta * sigma
    mag_notk = beta - mag_k
    xi = np.where(np.asarray(logits.q0) > logits.q1, -1.0, 1.0)

    def phase(a, b):
        cos = np.clip((1.0 + a * a - b * b) / (2.0 * np.maximum(a, 1e-8)), -1.0, 1.0)
        sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
        return np.where(a < 1e-8, 1.0, cos), np.where(a < 1e-8, 0.0, sin)

    cos_k, sin_k = phase(mag_k, mag_notk)
    cos_notk, sin_notk = phase(mag_notk, mag_k)
    return (mag_k * (cos_k + 1j * xi * sin_k), mag_notk * (cos_notk - 1j * xi * sin_notk),
            mag_k, mag_notk, beta, beta_raw)


def test_c1_phm_closure_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    shape = (400, 250)  # 100k bins
    logits = MaskLogits(
        z_k=rng.uniform(-12, 12, shape), z_notk=rng.uniform(-12, 12, shape),
        beta_logit=rng.uniform(-12, 12, shape),
        q0=rng.uniform(-5, 5, shape), q1=rng.uniform(-5, 5, shape))
    ref_k, ref_notk, mag_k, mag_notk, beta, _ = law_of_cosines_masks(logits)
    assert np.all(beta >= 1.0)
    assert np.all(np.abs(mag_k - mag_notk) <= 1.0 + 1e-9)
    mask_k = assemble_masks(logits)
    # the closed form's M_k closes the reference's triangle: its M_notk is
    # built independently, from the other side's law of cosines
    closure = np.max(np.abs(mask_k + ref_notk - 1.0))
    assert closure < 1e-6
    assert np.max(np.abs(mask_k - ref_k)) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("C1 closure fuzz", f"100k bins, max closure error {closure:.2e}, "
            f"{elapsed:.2f}s")


def test_c2_oracle_exactness():
    start = time.perf_counter()
    cfg = RT_PRESET
    guard = cfg.window_size
    worst_sdr = np.inf
    worst_bin = 0.0
    n_active = 0
    n_bounded = 0
    for seed in range(20):
        truth = sample_scenario(3000 + seed)
        sig_d, sig_r, sig_n = oracle_reconstruct(truth, cfg)
        interior = slice(guard, len(truth.x) - guard)
        sdr_d = si_sdr(truth.y_d.samples[interior], sig_d.samples[interior])
        sdr_n = si_sdr(truth.y_n.samples[interior], sig_n.samples[interior])
        assert sdr_d >= 50.0 and sdr_n >= 50.0
        worst_sdr = min(worst_sdr, sdr_d, sdr_n)

        # per-bin exactness holds where the fitted masks are representable
        # in double precision (magnitude <= 4, per the oracle-exactness
        # bound); coverage of that condition is asserted below
        X = stft(truth.x, cfg)
        abs_x = np.abs(X.bins)
        active = abs_x > 1e-6
        masks = np.empty((3, *X.bins.shape), dtype=complex)
        for row, y in zip(masks[::2], (truth.y_d, truth.y_n)):
            assemble_masks(oracle_fit(X, stft(y, cfg)), out=row)
        bounded = active
        for mask_k in masks[::2]:
            bounded = bounded & (np.abs(mask_k) <= 4.0) & (np.abs(1.0 - mask_k) <= 4.0)
        n_active += int(active.sum())
        n_bounded += int(bounded.sum())
        est_d, est_r, est_n = quadrangle_decompose(X, masks)
        for est, ref in ((est_d, truth.y_d), (est_r, truth.y_r), (est_n, truth.y_n)):
            err = np.abs(est.bins - stft(ref, cfg).bins)[bounded] / abs_x[bounded]
            worst_bin = max(worst_bin, float(err.max()))
        assert worst_bin < 1e-6
    coverage = n_bounded / n_active
    assert coverage >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("C2 oracle exactness", f"20 mixtures, min SI-SDR {worst_sdr:.1f} dB, "
            f"max per-bin rel err {worst_bin:.2e} over {100 * coverage:.1f}% "
            f"of active bins, {elapsed:.1f}s")


def _compare_backends(cfg, weight_seed, input_seed, dtype):
    weights = random_weights(cfg, weight_seed, dtype=dtype)
    rng = np.random.default_rng(input_seed)
    feats = rng.standard_normal((5, cfg.in_frames, cfg.in_bins)).astype(dtype)
    state = StreamState(cfg, weights)
    out = None
    for t in range(cfg.in_frames):
        out = stream_push(feats[:, t, :], state)
    naive = naive_infer(feats, weights, cfg)
    return float(np.max(np.abs(out - naive)))


def test_c3_streaming_naive_equivalence():
    start = time.perf_counter()
    cfg = default_config()
    worst32 = 0.0
    for i in range(200):
        worst32 = max(worst32, _compare_backends(cfg, 2 * i, 2 * i + 1, np.float32))
        assert worst32 < 1e-4
    worst64 = 0.0
    for i in range(20):
        worst64 = max(worst64, _compare_backends(cfg, 900 + i, 950 + i, np.float64))
        assert worst64 < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _report("C3 backend equivalence",
            f"200 fp32 pairs max {worst32:.2e} (<1e-4), "
            f"20 fp64 pairs max {worst64:.2e} (<1e-10), {elapsed:.1f}s")


def test_c4_multiplication_reduction():
    cfg = default_config()
    report = count_ops(cfg)
    naive_m, stream_m = measured_ops(cfg)
    for layer in report.layers:
        assert naive_m[layer.name] == layer.naive_mults
        assert stream_m[layer.name] == layer.streaming_mults
    assert report.overall_reduction >= 0.80

    degenerate = UNetConfig(  # one 1x1 level, its mirrored decoder and the head
        encoder=(ConvSpec(1, 1, 1, 1, 8),), decoder_channels=(6,),
        in_bins=253, in_frames=65, lookahead_frames=0)
    deg = count_ops(degenerate)
    assert Fraction(deg.streaming_total, deg.naive_total) == Fraction(1, 65)
    _report("C4 multiplication reduction",
            f"instrumented == analytic on every layer; default reduction "
            f"{100 * report.overall_reduction:.1f}% (>=80% required; the figure is "
            f"architecture-dependent, 88.9% being the reference point for the "
            f"original unpublished layout, reported not asserted); "
            f"degenerate 1x1 = 64/65 exact")


def test_c5_queue_formula():
    from tests.test_streaming import _brute_force_phase_count, _stride_config

    rng = np.random.default_rng(55)
    checked = 0
    for _ in range(50):
        depth = int(rng.integers(1, 6))
        strides = [int(rng.integers(1, 4)) for _ in range(depth)]
        cfg = _stride_config(strides)
        for d in range(1, depth + 1):
            expected = 1
            for s in strides[:d]:
                expected *= s
            assert required_queues(cfg, d) == expected
            assert required_queues(cfg, d) == _brute_force_phase_count(strides, d)
            checked += 1
    _report("C5 queue formula", f"{checked} depth checks over 50 random stride chains")


def test_c6_loss_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(6)

    y = rng.uniform(-0.5, 0.5, 32000)
    seg = y[:4064]
    from trimask import cos_sim_loss

    assert cos_sim_loss(seg, seg) == pytest.approx(-1.0, abs=1e-8)
    assert multiscale_loss(y, y) == pytest.approx(-4.0, abs=1e-8)
    assert emphasized_loss(y, y) == pytest.approx(-12.0, abs=1e-8)
    comps = {k: (rng.uniform(-0.3, 0.3, 32000),) * 2 for k in ("d", "r", "n")}
    comps = {k: (v[0], v[0].copy()) for k, v in comps.items()}
    x = sum(v[0] for v in comps.values())
    assert final_loss(comps, x) == pytest.approx(-72.0, abs=1e-8)

    big = rng.standard_normal(8128) * 4.0
    bighat = rng.standard_normal(8128) * 4.0
    base = multiscale_loss(big, bighat)
    for c in (0.5, 2.0, 100.0):
        assert multiscale_loss(big, c * bighat) == pytest.approx(base, abs=1e-9)

    worst = 0.0
    for i in range(100):
        n = int(rng.integers(4064, 10000))
        yy = rng.uniform(-0.4, 0.4, n)
        yh = rng.uniform(-0.4, 0.4, n)
        grad = loss_gradient(yy, yh)
        for _ in range(2):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (emphasized_loss(yy, yh + h * v)
                  - emphasized_loss(yy, yh - h * v)) / (2 * h)
            rel = abs(float(np.dot(grad, v)) - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C6 loss suite", f"-1/-4/-12/-72 within 1e-8, scale-invariant to 1e-9, "
            f"100 gradient checks max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c7_stft_round_trip_both_presets():
    rng = np.random.default_rng(7)
    for name, cfg in (("rt", RT_PRESET), ("nrt", NRT_PRESET)):
        x = rng.standard_normal(32000)
        y = istft(stft(x, cfg), cfg, length=len(x)).samples
        w = cfg.window_size
        err = y[w:-w] - x[w:-w]
        snr = 10 * np.log10(np.sum(x[w:-w] ** 2) / max(np.sum(err**2), 1e-300))
        assert snr >= 120.0
        _report(f"C7 round trip ({name})", f"interior SNR {snr:.0f} dB (>=120)")


def test_c8_metrics_exactness():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((50, 60)) + 1j * rng.standard_normal((50, 60))
    assert phase_distance(A, A) == pytest.approx(0.0, abs=1e-9)
    assert phase_distance(A, -A) == pytest.approx(180.0, abs=1e-9)
    assert phase_distance(A, 1j * A) == pytest.approx(90.0, abs=1e-9)
    y = rng.standard_normal(8000)
    n = rng.standard_normal(8000)
    n -= (np.dot(n, y) / np.dot(y, y)) * y
    n *= np.linalg.norm(y) / (10.0 * np.linalg.norm(n))
    assert si_sdr(y, y + n) == pytest.approx(20.0, abs=1e-6)
    _report("C8 metrics", "PD 0/180/90 to 1e-9 deg; SI-SDR 20 dB to 1e-6")


def test_c9_batchnorm_fusion_50_instances():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        c_in = int(rng.integers(1, 6))
        c_out = int(rng.integers(1, 8))
        kf, kt = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        w = rng.standard_normal((c_out, c_in, kf, kt))
        b = rng.standard_normal(c_out)
        gamma = rng.uniform(0.3, 2.5, c_out)
        beta = rng.standard_normal(c_out)
        mean = rng.standard_normal(c_out)
        var = rng.uniform(0.1, 4.0, c_out)
        x = rng.standard_normal((c_in, kf + 7, kt + 9))
        raw = conv_valid(x, w, b, 1, 1)
        seq = gamma[:, None, None] * (raw - mean[:, None, None]) \
            / np.sqrt(var + 1e-5)[:, None, None] + beta[:, None, None]
        wf, bf = fuse_batchnorm(w, b, gamma, beta, mean, var)
        fused = conv_valid(x, wf, bf, 1, 1)
        worst = max(worst, float(np.max(np.abs(fused - seq))))
        assert worst < 1e-6
    _report("C9 batchnorm fusion", f"50 instances, max deviation {worst:.2e} (<1e-6)")


def test_c10_cli_determinism(tmp_path):
    truth = sample_scenario(77)
    src = tmp_path / "mix.wav"
    write_wav(src, truth.x.samples[:12000])

    enhanced = []
    for name in ("e1.wav", "e2.wav"):
        out = tmp_path / name
        rc = cli_main(["enhance", "--input", str(src), "--output", str(out),
                       "--seed", "13", "--emit-stats", str(tmp_path / (name + ".json"))])
        assert rc == 0
        enhanced.append(out.read_bytes())
    assert enhanced[0] == enhanced[1]
    assert (tmp_path / "e1.wav.json").read_bytes() == (tmp_path / "e2.wav.json").read_bytes()

    sims = []
    for d in ("s1", "s2"):
        rc = cli_main(["simulate", "--seed", "31", "--out-dir", str(tmp_path / d),
                       "--count", "2"])
        assert rc == 0
        files = sorted((tmp_path / d).iterdir())
        sims.append([f.read_bytes() for f in files])
    assert sims[0] == sims[1]
    _report("C10 CLI determinism", "enhance and simulate byte-identical under fixed seeds")
