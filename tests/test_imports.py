"""The engine imports numpy and trimask only; scipy loads on first use by
the simulator and the WAV reader and writer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from trimask import write_wav

ROOT = Path(__file__).resolve().parents[1]


def _scipy_modules_after(code: str, *args) -> set:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    report = "\nprint(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code + report, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_import_trimask_loads_no_scipy():
    assert _scipy_modules_after("import trimask, trimask.cli") == set()


def test_engine_runs_without_scipy():
    code = """import numpy as np, trimask
x = np.random.default_rng(0).standard_normal(8000) * 0.1
stft_cfg = trimask.PRESETS["rt"]
cfg = trimask.config_for_preset(stft_cfg)
weights = trimask.random_weights(cfg, 0)
for mode in ("causal-stream", "noncausal-window"):
    trimask.enhance(x, weights, cfg, stft_cfg, mode=mode, drc=trimask.DrcConfig())
parts = (x, 0.5 * x, 0.25 * x)
truth = trimask.MixtureTruth(*map(trimask.SignalBuffer, (sum(parts),) + parts), snr_db=0.0)
trimask.oracle_reconstruct(truth, stft_cfg)"""
    assert _scipy_modules_after(code) == set()


def test_simulator_loads_scipy_signal_on_first_use():
    loaded = _scipy_modules_after("import trimask\ntrimask.sample_scenario(0)")
    assert "scipy.signal" in loaded


def test_read_wav_loads_scipy_io_on_first_use(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.zeros(160))
    loaded = _scipy_modules_after("import trimask\ntrimask.read_wav(sys.argv[1])", str(path))
    assert "scipy.io" in loaded
