"""Fresh-process side of the benchmark; started by run.py, never by hand.

``worker.py setup PRESET WEIGHTS`` times one cold set-up: import trimask,
build the UNetConfig, load the PHMW weights and build a StreamState.

``worker.py measure WORKLOAD SEED SECONDS TRACE WEIGHTS WORKDIR [--smoke]``
does the same set-up, generates the workload's inputs, runs one untimed
warm-up operation, then runs operations back to back (a closed loop from
one client) until their summed wall time reaches SECONDS. Each operation's
outputs are checked after its clock stops. With TRACE=1 the first half of
the time runs untraced and the second half under the tracer.

Both print one JSON object on stdout.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path


def _setup(preset: str, weights_path: str) -> float:
    """Seconds to import trimask (numpy and scipy with it), build the
    config, load the weights and build a StreamState."""
    t0 = time.perf_counter()
    import trimask
    cfg = trimask.config_for_preset(trimask.PRESETS[preset])
    weights = trimask.load_weights(weights_path, cfg)
    trimask.StreamState(cfg, weights)
    return time.perf_counter() - t0


def _status_mb(field: str) -> float:
    """A memory figure of this process from /proc/self/status, in MiB.

    VmHWM rather than ru_maxrss: the latter carries the parent's peak
    across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError(f"{field} missing from /proc/self/status")


class _CallTimer:
    """Times each call of one trimask.enhance attribute with two clock reads.

    ``blocks`` holds one list of call latencies per operation.
    """

    def __init__(self, attr):
        self.attr = attr
        self.blocks = []
        self._mod = importlib.import_module("trimask.enhance")
        self._fn = getattr(self._mod, attr) if attr else None

    def __enter__(self):
        if self._fn is not None:
            fn, blocks, clock = self._fn, self.blocks, time.perf_counter

            def timed(*args, **kwargs):
                t = clock()
                out = fn(*args, **kwargs)
                blocks[-1].append(clock() - t)
                return out

            setattr(self._mod, self.attr, timed)
        return self

    def __exit__(self, *exc):
        if self._fn is not None:
            setattr(self._mod, self.attr, self._fn)


def best_by_position(blocks, inputs: int):
    """Each call position's fastest latency over its repetitions in the run.

    ``blocks[i]`` holds the latencies of operation ``i``, which runs input
    ``i % inputs``. A position is (input, index of the call within the
    operation), so its repetitions do the same work, and the fastest of them
    is the program's cost with the host's interference filtered out as far
    as the repetitions allow. Returns the fastest latencies and the
    repetition count of each position.
    """
    best, reps = {}, {}
    for i, block in enumerate(blocks):
        for k, t in enumerate(block):
            key = (i % inputs, k)
            best[key] = min(best.get(key, t), t)
            reps[key] = reps.get(key, 0) + 1
    return list(best.values()), list(reps.values())


def _loop(wl, seconds, first_op, tracer=None, calls=None):
    """Run operations until their summed wall time reaches ``seconds``."""
    busy = audio = 0.0
    op_times, failures = [], []
    attempted = failed = 0
    i = first_op
    while busy < seconds or attempted == 0:
        if tracer is not None:
            tracer.op, tracer.active = i, True
        if calls is not None:
            calls.blocks.append([])
        t = time.perf_counter()
        out = wl.op(i)
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.active = False
        busy += dt
        audio += wl.audio_s
        op_times.append(dt)
        problems = wl.check(out, i)
        attempted += 1
        if problems:
            failed += 1
            failures.append({"op": i, "problems": problems})
        i += 1
    return {"busy_s": busy, "audio_s": audio, "op_times": op_times,
            "attempted": attempted, "failed": failed, "failures": failures[:10],
            "next_op": i}


def measure(workload, seed, seconds, trace, weights_path, workdir, smoke):
    from workloads import WORKLOADS
    _setup(WORKLOADS[workload].preset, weights_path)
    import numpy as np
    from tracer import Tracer, layer_metrics

    workdir = Path(workdir)
    wl = WORKLOADS[workload](seed, smoke, Path(weights_path), workdir)
    rss_base = _status_mb("VmRSS")
    wl.warmup()

    result = {"workload": workload, "inputs": wl.input_facts()}
    if not trace:
        with _CallTimer(wl.timed_call) as calls:
            run = _loop(wl, seconds, 0, calls=calls)
        op_blocks = [[t] for t in run["op_times"]]
        blocks = calls.blocks if wl.timed_call else op_blocks
        best, reps = best_by_position(blocks, wl.inputs)
        best_ops = best_by_position(op_blocks, wl.inputs)[0]

        def pct_us(samples, q):
            return float(np.percentile(samples, q)) * 1e6

        result["metrics"] = {
            "rtf": statistics.fmean(best_ops) / wl.audio_s,
            "call_us_p50": pct_us(best, 50),
            "call_us_p90": pct_us(best, 90),
            "peak_rss_mb": _status_mb("VmHWM") - rss_base,
        }
        result["latency"] = {
            "samples": sum(len(b) for b in blocks), "positions": len(best),
            "repetitions": [min(reps), max(reps)],
            "raw_rtf": statistics.median(run["op_times"]) / wl.audio_s,
            "raw_us_p50": pct_us(np.concatenate(blocks), 50),
            "raw_us_p90": pct_us(np.concatenate(blocks), 90),
            "latencies_s": blocks,
        }
        result["op_times_s"] = run["op_times"]
    else:
        with _CallTimer(wl.timed_call) as calls:
            plain = _loop(wl, seconds / 2, 0, calls=calls)
        tracer = Tracer()
        tracer.install()
        try:
            run = _loop(wl, seconds / 2, plain["next_op"], tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.dump(workdir / "spans.json")
        metrics = layer_metrics(tracer.spans, run["busy_s"], run["audio_s"],
                                run["attempted"], wl.cfg)
        metrics["trace.overhead_frac"] = (statistics.median(run["op_times"])
                                          / statistics.median(plain["op_times"]) - 1.0)
        result["metrics"] = metrics
        result["spans"] = len(tracer.spans)
        for key in ("attempted", "failed"):
            run[key] += plain[key]
        run["failures"] = plain["failures"] + run["failures"]
    result.update({k: run[k] for k in ("attempted", "failed", "failures", "busy_s", "audio_s")})
    return result


def main(argv):
    sys.path.insert(0, str(Path.cwd() / "src"))
    if argv[0] == "setup":
        out = {"setup_s": _setup(argv[1], argv[2])}
    else:
        workload, seed, seconds, trace, weights, workdir = argv[1:7]
        out = measure(workload, int(seed), float(seconds), trace == "1", weights, workdir,
                      "--smoke" in argv[7:])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
