"""Self-tests of the benchmark: metric names and units, failure counting.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _smoke(trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.05", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _assert_all_printed(lines, metrics):
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= len(WORKLOADS)
    table = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines[:-1]}
    for w in WORKLOADS:
        for m in metrics:
            entry = final["metrics"][f"{w}/{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert np.isfinite(entry["value"])
            assert (m["name"], m["unit"]) in table
    assert sum(line.startswith("failed_frac") for line in lines) == len(WORKLOADS)


def test_smoke_prints_every_end_to_end_metric():
    _assert_all_printed(_smoke(0), SPEC["end_to_end"])


def test_traced_smoke_prints_every_per_layer_metric():
    _assert_all_printed(_smoke(1), SPEC["per_layer"])


def test_corrupted_component_is_counted_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import trimask
    E = importlib.import_module("trimask.enhance")
    import worker
    from workloads import StreamRtLong

    workdir = ROOT / ".perfbench_out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = trimask.config_for_preset(trimask.PRESETS["rt"])
    trimask.save_weights(workdir / "weights.phmw", trimask.random_weights(cfg, 0))
    wl = StreamRtLong(0, True, workdir / "weights.phmw", workdir)
    assert worker._loop(wl, 0.0, 0)["failed"] == 0

    decompose = E.quadrangle_decompose

    def perturbed(*args):
        y_d, y_r, y_n = decompose(*args)
        y_n.bins[10, 20] += 1e-3 * np.abs(y_n.bins).max()
        return y_d, y_r, y_n

    monkeypatch.setattr(E, "quadrangle_decompose", perturbed)
    run = worker._loop(wl, 0.0, 0)
    assert run["attempted"] == run["failed"] == 1
    assert "closure" in run["failures"][0]["problems"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                           "oracle-rt-drc", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_best_by_position_keeps_each_positions_fastest_repetition(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import worker

    # operations 0 and 2 run input 0, operation 1 runs input 1
    best, reps = worker.best_by_position([[3.0, 1.0], [2.0, 5.0], [4.0, 0.5]], inputs=2)
    assert best == [3.0, 0.5, 2.0, 5.0]
    assert reps == [2, 2, 1, 1]
