"""Every demo script runs to completion against the in-tree package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # demos write WAVs to a temp dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


@pytest.mark.parametrize("name", ["full_pipeline.py", "oracle_separation.py"])
def test_demo_rerun_overwrites_its_output(name, tmp_path):
    def listing():
        return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))

    _run(ROOT / "demos" / name, tmp_path)
    first = listing()
    _run(ROOT / "demos" / name, tmp_path)
    assert first and listing() == first
