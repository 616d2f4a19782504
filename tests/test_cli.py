import json

import numpy as np
import pytest

from trimask import write_wav
from trimask.cli import main
from trimask.simulate import sample_scenario


def _mixture_wav(tmp_path, seed=0, n=12000):
    truth = sample_scenario(seed)
    path = tmp_path / "mix.wav"
    write_wav(path, truth.x.samples[:n])
    return path


def test_enhance_requires_weights_or_seed(tmp_path, capsys):
    src = _mixture_wav(tmp_path)
    rc = main(["enhance", "--input", str(src), "--output", str(tmp_path / "out.wav")])
    assert rc == 2
    assert "weights" in capsys.readouterr().err
    # both is ambiguous too: the seed would be silently ignored (and the file
    # is never opened, or this missing path would be an exit-1 error)
    rc = main(["enhance", "--input", str(src), "--output", str(tmp_path / "out.wav"),
               "--weights", str(tmp_path / "missing.phmw"), "--seed", "3"])
    assert rc == 2
    assert "exactly one of --weights or --seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--reverb-gain-db", "nan"),
                                        ("--reverb-gain-db", "inf"),
                                        ("--lookahead-ms", "inf")])
def test_enhance_non_finite_option_is_a_clean_error(tmp_path, capsys, flag, value):
    src = _mixture_wav(tmp_path)
    rc = main(["enhance", "--input", str(src), "--output", str(tmp_path / "out.wav"),
               "--seed", "0", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err


def test_enhance_deterministic_bytes(tmp_path):
    src = _mixture_wav(tmp_path)
    outs = []
    for name in ("a.wav", "b.wav"):
        out = tmp_path / name
        rc = main(["enhance", "--input", str(src), "--output", str(out),
                   "--seed", "7"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_enhance_components_and_stats(tmp_path):
    src = _mixture_wav(tmp_path, seed=1)
    out = tmp_path / "out.wav"
    comp = tmp_path / "components"
    stats = tmp_path / "stats.json"
    rc = main(["enhance", "--input", str(src), "--output", str(out),
               "--seed", "3", "--reverb-gain-db", "0", "--drc", "off",
               "--emit-components", str(comp), "--emit-stats", str(stats)])
    assert rc == 0
    from trimask import read_wav

    remixed = read_wav(out).samples
    direct = read_wav(comp / "direct.wav").samples
    reverb = read_wav(comp / "reverb.wav").samples
    assert np.max(np.abs(remixed - (direct + reverb))) <= 1e-6
    data = json.loads(stats.read_text())
    assert data["overall_reduction"] >= 0.80
    assert data["frames_emitted"] > 0
    assert "wall" not in json.dumps(data)  # stats stay byte-deterministic


def test_enhance_noncausal_matches_causal(tmp_path):
    src = _mixture_wav(tmp_path, seed=2, n=10000)
    a = tmp_path / "causal.wav"
    b = tmp_path / "noncausal.wav"
    assert main(["enhance", "--input", str(src), "--output", str(a),
                 "--seed", "5", "--mode", "causal"]) == 0
    assert main(["enhance", "--input", str(src), "--output", str(b),
                 "--seed", "5", "--mode", "noncausal"]) == 0
    from trimask import read_wav

    assert np.max(np.abs(read_wav(a).samples - read_wav(b).samples)) < 1e-4


def test_enhance_nrt_preset_runs(tmp_path):
    src = _mixture_wav(tmp_path, seed=3)
    out = tmp_path / "out.wav"
    stats = tmp_path / "stats.json"
    rc = main(["enhance", "--input", str(src), "--output", str(out),
               "--seed", "1", "--preset", "nrt", "--emit-stats", str(stats)])
    assert rc == 0
    assert out.exists()
    # nrt hop 256: a 12000-sample input yields (12000-1024)//256 + 1 frames
    data = json.loads(stats.read_text())
    assert data["frames_total"] == (12000 - 1024) // 256 + 1


def test_enhance_weight_file_matches_seed(tmp_path):
    # a saved weight set reproduces the --seed run byte for byte
    from trimask import random_weights, save_weights
    from trimask.spectral import RT_PRESET
    from trimask.unet import config_for_preset

    cfg = config_for_preset(RT_PRESET)
    wpath = tmp_path / "model.phmw"
    save_weights(wpath, random_weights(cfg, 7))

    src = _mixture_wav(tmp_path, seed=9)
    by_seed = tmp_path / "seed.wav"
    by_file = tmp_path / "file.wav"
    assert main(["enhance", "--input", str(src), "--output", str(by_seed),
                 "--seed", "7"]) == 0
    assert main(["enhance", "--input", str(src), "--output", str(by_file),
                 "--weights", str(wpath)]) == 0
    assert by_seed.read_bytes() == by_file.read_bytes()


def test_enhance_drc_flag_changes_output(tmp_path):
    src = _mixture_wav(tmp_path, seed=8)
    flat = tmp_path / "flat.wav"
    squeezed = tmp_path / "squeezed.wav"
    assert main(["enhance", "--input", str(src), "--output", str(flat),
                 "--seed", "2", "--drc", "off"]) == 0
    assert main(["enhance", "--input", str(src), "--output", str(squeezed),
                 "--seed", "2", "--drc", "on"]) == 0
    from trimask import read_wav

    a = read_wav(flat).samples
    b = read_wav(squeezed).samples
    assert not np.array_equal(a, b)
    # compression never raises the level (default makeup 0)
    assert np.sqrt(np.mean(b**2)) <= np.sqrt(np.mean(a**2)) + 1e-12


def test_enhance_missing_input_errors(tmp_path, capsys):
    rc = main(["enhance", "--input", str(tmp_path / "nope.wav"),
               "--output", str(tmp_path / "out.wav"), "--seed", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["enhance", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_simulate_deterministic_and_manifest(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        rc = main(["simulate", "--seed", "11", "--out-dir", str(out), "--count", "3"])
        assert rc == 0
    for name in ["manifest.tsv"] + [f"{k}_{i:03d}.wav"
                                    for k in ("mixture", "direct", "reverb", "noise")
                                    for i in range(3)]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    lines = [l for l in (out1 / "manifest.tsv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 3


def test_simulate_manifest_snr_matches_measurement(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--seed", "21", "--out-dir", str(out), "--count", "2",
               "--snr-db", "4.0"])
    assert rc == 0
    from trimask import read_wav

    for line in (out / "manifest.tsv").read_text().splitlines():
        if line.startswith("#"):
            continue
        _, _, snr, _, _, d, r, n = line.split("\t")
        direct = read_wav(out / d).samples
        reverb = read_wav(out / r).samples
        noise = read_wav(out / n).samples
        rev = direct + reverb
        measured = 10 * np.log10(np.dot(rev, rev) / np.dot(noise, noise))
        assert measured == pytest.approx(float(snr), abs=1e-3)
        assert float(snr) == pytest.approx(4.0, abs=1e-9)


def test_simulate_rejects_conflicting_snr_flags(tmp_path, capsys):
    rc = main(["simulate", "--seed", "1", "--out-dir", str(tmp_path / "x"),
               "--snr-db", "3", "--snr-range", "0", "10"])
    assert rc == 2


@pytest.mark.parametrize("count", ["0", "-2"])
def test_simulate_rejects_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "x"
    rc = main(["simulate", "--seed", "1", "--out-dir", str(out), "--count", count])
    assert rc == 2
    assert f"--count must be >= 1, got {count}" in capsys.readouterr().err
    assert not out.exists()  # rejected before any file is written


def test_metrics_identical_files(tmp_path, capsys):
    path = _mixture_wav(tmp_path, seed=4)
    rc = main(["metrics", "--reference", str(path), "--estimate", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SI-SDR: 200.00 dB" in out
    assert "PD: 0.000 deg" in out


def test_metrics_polarity_flip_pd_180(tmp_path, capsys):
    # scenario 1's weighted mean angle rounds past 180 degrees unclamped
    for scenario in (5, 1):
        truth = sample_scenario(scenario)
        ref = tmp_path / "ref.wav"
        est = tmp_path / "est.wav"
        write_wav(ref, truth.x.samples[:8000])
        write_wav(est, -truth.x.samples[:8000])
        rc = main(["metrics", "--reference", str(ref), "--estimate", str(est), "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["phase_distance_deg"] == pytest.approx(180.0, abs=1e-6)


def test_metrics_20db_orthogonal_pair(tmp_path, capsys):
    rng = np.random.default_rng(6)
    y = rng.standard_normal(16000) * 0.1
    n = rng.standard_normal(16000)
    n -= (np.dot(n, y) / np.dot(y, y)) * y
    n *= np.linalg.norm(y) / (10.0 * np.linalg.norm(n))
    ref = tmp_path / "ref.wav"
    est = tmp_path / "est.wav"
    write_wav(ref, y)
    write_wav(est, y + n)
    rc = main(["metrics", "--reference", str(ref), "--estimate", str(est)])
    assert rc == 0
    out = capsys.readouterr().out
    si_line = [l for l in out.splitlines() if l.startswith("SI-SDR")][0]
    assert abs(float(si_line.split()[1]) - 20.0) <= 0.01


def test_bench_ops_default(capsys):
    rc = main(["bench-ops"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall reduction: 95." in out
    assert "MISMATCH" not in out
    assert "instrumented check" in out


_ENC1_1X1 = {"kernel_f": 1, "kernel_t": 1, "stride_f": 1, "stride_t": 1, "out_ch": 8}


def test_bench_ops_degenerate_config(tmp_path, capsys):
    cfg_json = {
        "in_bins": 253, "in_frames": 65, "lookahead_frames": 0,
        "encoder": [_ENC1_1X1], "decoder_channels": [6],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_json))
    rc = main(["bench-ops", "--config", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"{65 * 253 * 5 * 8}" in out
    assert f"{253 * 5 * 8}" in out
    assert "98.46%" in out  # 64/65
    assert "instrumented check" in out and "MISMATCH" not in out


@pytest.mark.parametrize("cfg_json,match", [
    ([_ENC1_1X1], "must be a JSON object"),
    ({"decoder_channels": [6]}, "missing 'encoder'"),
    ({"encoder": [_ENC1_1X1]}, "missing 'decoder_channels'"),
    ({"decoder": []}, "unknown config keys"),
    ({"encoder": [_ENC1_1X1], "decoder_channels": [6], "head_channels": 10}, "unknown"),
    ({"encoder": [_ENC1_1X1], "decoder_channels": [6], "in_channels": 5}, "unknown"),
    ({"encoder": [{"kernel_f": 1}], "decoder_channels": [6]}, "encoder entry 1"),
    ({"encoder": [{**_ENC1_1X1, "pad": 0}], "decoder_channels": [6]}, "encoder entry 1"),
    ({"encoder": 5, "decoder_channels": [6]}, "'encoder'"),
    ({"encoder": [_ENC1_1X1], "decoder_channels": 4}, "'decoder_channels'"),
    ({"encoder": [{**_ENC1_1X1, "kernel_f": "1"}], "decoder_channels": [6]}, "'kernel_f'"),
    # an encoder layer's input width and the leaky slope are not settable
    ({"encoder": [{**_ENC1_1X1, "in_ch": 5}], "decoder_channels": [6]}, "'in_ch'"),
    ({"encoder": [_ENC1_1X1], "decoder_channels": [6], "activation_slope": 0.01},
     "'activation_slope'"),
])
def test_bench_ops_malformed_config_is_a_clean_error(tmp_path, capsys, cfg_json, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_json))
    assert main(["bench-ops", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err


def test_oracle_check_runs(capsys):
    rc = main(["oracle-check", "--seed", "0", "--count", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "min SI-SDR" in out


def test_oracle_check_zero_count_is_noop(capsys):
    rc = main(["oracle-check", "--count", "0"])
    assert rc == 0
    assert "nothing to do" in capsys.readouterr().out


def test_oracle_check_rejects_negative_count(capsys):
    assert main(["oracle-check", "--count", "-2"]) == 2
    captured = capsys.readouterr()
    assert "--count must be >= 0, got -2" in captured.err
    assert "nothing to do" not in captured.out


def test_oracle_check_deterministic(capsys):
    assert main(["oracle-check", "--seed", "3", "--count", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle-check", "--seed", "3", "--count", "1"]) == 0
    assert capsys.readouterr().out == first
