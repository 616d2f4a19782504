"""trimask benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload stream-rt-long --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts and every metric by name with its unit. The exit code is 0
only when every output check passed. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-vCPU VM, two threads made the windowed
# workload's RTF spread 16% across runs (4% with one), because each GEMM
# then waits for whichever vCPU the host is starving.
BLAS_THREADS = 1
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


def _machine_facts(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_cap": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _worker(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 facts: dict, units: dict) -> dict:
    """Set up, run and report one workload; returns the result object."""
    import trimask
    from workloads import WORKLOADS

    workdir = Path.cwd() / ".perfbench_out" / name
    workdir.mkdir(parents=True, exist_ok=True)
    preset = WORKLOADS[name].preset
    weights_path = workdir / "weights.phmw"
    cfg = trimask.config_for_preset(trimask.PRESETS[preset])
    trimask.save_weights(weights_path, trimask.random_weights(cfg, seed))

    def probe_setup(count):
        return [_worker(["setup", preset, str(weights_path)])["setup_s"]
                for _ in range(0 if trace else count)]

    # set-up probes on both sides of the measurement, so that one slow spell
    # of the machine does not cover them all
    setup = probe_setup(1 if smoke else SETUP_PROBES // 2)
    res = _worker(["measure", name, str(seed), repr(seconds), "1" if trace else "0",
                   str(weights_path), str(workdir)] + (["--smoke"] if smoke else []))
    setup += probe_setup(0 if smoke else SETUP_PROBES - SETUP_PROBES // 2)
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setup)
    (workdir / "result.json").write_text(json.dumps(
        {"facts": facts, "seed": seed, "trace": trace, "setup_samples": setup, **res},
        indent=1) + "\n")

    print(f"== {name}  seed {seed}  trace {int(trace)}")
    print("facts " + json.dumps({**facts, "seed": seed, "inputs": res["inputs"]}))
    if not trace:
        lat = res["latency"]
        print(f"latency: {lat['samples']} samples at {lat['positions']} call positions, "
              f"{lat['repetitions'][0]}-{lat['repetitions'][1]} repetitions each; "
              f"setup_s = median of {len(setup)} fresh processes")
        print(f"{'raw_rtf':34s} {lat['raw_rtf']!r} s/s (median operation, not bounded)")
        print(f"{'raw_call_us_p50':34s} {lat['raw_us_p50']!r} us (all samples, not bounded)")
        print(f"{'raw_call_us_p90':34s} {lat['raw_us_p90']!r} us (all samples, not bounded)")
    for key, value in metrics.items():
        print(f"{key:34s} {value!r} {units[key]}")
    print(f"{'failed_frac':34s} {res['failed'] / res['attempted']!r} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for failure in res["failures"]:
        print(f"FAILED op {failure['op']}: {'; '.join(failure['problems'])}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload_names = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed wall time of the timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the self-tests")
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "trimask" / "__init__.py").is_file():
        print("error: run from the root of a trimask checkout (src/trimask not found)",
              file=sys.stderr)
        return 2

    # cap BLAS threads before numpy is first imported, here and in the workers
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import precheck

    facts = _machine_facts(nproc)
    facts["precheck"] = precheck(args.seed)
    names = workload_names if args.workload == "all" else (args.workload,)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.smoke,
                               facts, units)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
