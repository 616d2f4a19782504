"""Command-line surface: enhance, simulate, metrics, bench-ops, oracle-check."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import wavio
from .dynamics import DrcConfig
from .enhance import enhance, oracle_reconstruct
from .metrics import evaluate_pair, si_sdr
from .opcount import count_ops, measured_ops
from .simulate import ScenarioRanges, sample_scenario
from .spectral import PRESETS
from .unet import (config_for_preset, config_from_json_dict, load_weights,
                   random_weights, validate_weights)

ORACLE_SI_SDR_FLOOR_DB = 50.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimask",
        description="Single-stage speech denoising and dereverberation engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="separate a mixture and write the remixed output")
    p.add_argument("--input", required=True, help="input WAV (16 kHz mono)")
    p.add_argument("--output", required=True, help="output WAV path")
    p.add_argument("--weights", help="weight file (PHMW container)")
    p.add_argument("--seed", type=int, help="seeded random weights instead of a file")
    p.add_argument("--mode", choices=["causal", "noncausal"], default="causal")
    p.add_argument("--preset", choices=sorted(PRESETS), default="rt")
    p.add_argument("--reverb-gain-db", type=float, default=-15.0,
                   help="reverb level in the remix (use -inf to suppress)")
    p.add_argument("--lookahead-ms", type=float, default=32.0)
    p.add_argument("--drc", choices=["on", "off"], default="off")
    p.add_argument("--emit-components", metavar="DIR",
                   help="also write direct/reverb/noise WAVs into DIR")
    p.add_argument("--emit-stats", metavar="PATH", help="write op-count stats JSON")

    p = sub.add_parser("simulate", help="generate mixture/component quadruples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--snr-db", type=float, help="fixed SNR instead of a range")
    p.add_argument("--snr-range", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None, help="uniform SNR range in dB (default -10 30)")
    p.add_argument("--t60", type=float, help="fixed reverberation time in seconds")

    p = sub.add_parser("metrics", help="SI-SDR and phase distance of a signal pair")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--stft-preset", choices=sorted(PRESETS), default="rt")
    p.add_argument("--json", action="store_true", help="emit machine-readable output")

    p = sub.add_parser("bench-ops", help="per-layer multiplication counts, naive vs streaming")
    p.add_argument("--config", default="default", help="UNetConfig JSON path or 'default'")

    p = sub.add_parser("oracle-check", help="oracle mask end-to-end reconstruction suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    return parser


def _cmd_enhance(args) -> int:
    if (args.weights is None) == (args.seed is None):
        print("error: exactly one of --weights or --seed is required", file=sys.stderr)
        return 2
    stft_cfg = PRESETS[args.preset]
    cfg = config_for_preset(stft_cfg, lookahead_ms=args.lookahead_ms)
    if args.weights is not None:
        weights = load_weights(args.weights, cfg)
    else:
        weights = random_weights(cfg, args.seed)
        validate_weights(cfg, weights)

    signal = wavio.read_wav(args.input)
    mode = "causal-stream" if args.mode == "causal" else "noncausal-window"
    drc = DrcConfig() if args.drc == "on" else None
    result = enhance(signal, weights, cfg, stft_cfg, mode=mode,
                     reverb_gain_db=args.reverb_gain_db, drc=drc)

    wavio.write_wav(args.output, result.remixed)
    if args.emit_components:
        comp_dir = Path(args.emit_components)
        comp_dir.mkdir(parents=True, exist_ok=True)
        wavio.write_wav(comp_dir / "direct.wav", result.direct)
        wavio.write_wav(comp_dir / "reverb.wav", result.reverb)
        wavio.write_wav(comp_dir / "noise.wav", result.noise)
    if args.emit_stats:
        stats = {"mode": result.mode, **result.op_report.to_json_dict(),
                 "frames_total": result.frames_total,
                 "frames_emitted": result.frames_emitted}
        Path(args.emit_stats).write_text(json.dumps(stats, indent=2) + "\n")
    print(f"enhanced {args.input} -> {args.output} "
          f"({result.frames_emitted}/{result.frames_total} frames masked, {result.mode})")
    return 0


def _cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.snr_db is not None and args.snr_range is not None:
        print("error: --snr-db and --snr-range are mutually exclusive", file=sys.stderr)
        return 2
    ranges = ScenarioRanges() if args.snr_range is None else ScenarioRanges(
        snr_db=tuple(args.snr_range))

    manifest_lines = ["# index\tseed\tsnr_db\tt60_s\tmixture\tdirect\treverb\tnoise"]
    for i in range(args.count):
        seed = args.seed + i
        truth = sample_scenario(seed, ranges, snr_db=args.snr_db, t60=args.t60)
        names = {}
        for kind, sig in (("mixture", truth.x), ("direct", truth.y_d),
                          ("reverb", truth.y_r), ("noise", truth.y_n)):
            name = f"{kind}_{i:03d}.wav"
            wavio.write_wav(out_dir / name, sig)
            names[kind] = name
        manifest_lines.append(
            f"{i}\t{seed}\t{truth.snr_db:.6f}\t{truth.t60:.6f}\t"
            f"{names['mixture']}\t{names['direct']}\t{names['reverb']}\t{names['noise']}"
        )
    (out_dir / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {args.count} quadruple(s) + manifest to {out_dir}")
    return 0


def _cmd_metrics(args) -> int:
    ref = wavio.read_wav(args.reference)
    est = wavio.read_wav(args.estimate)
    report = evaluate_pair(ref, est, PRESETS[args.stft_preset],
                           reference_id=args.reference, estimate_id=args.estimate)
    print(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_bench_ops(args) -> int:
    if args.config == "default":
        cfg = config_for_preset(PRESETS["rt"])
    else:
        cfg = config_from_json_dict(json.loads(Path(args.config).read_text()))
    report = count_ops(cfg)
    print(report.to_text())
    print(f"overall reduction: {100.0 * report.overall_reduction:.2f}% "
          f"(architecture-dependent)")
    t0 = time.perf_counter()
    naive_meas, stream_meas = measured_ops(cfg)
    elapsed = time.perf_counter() - t0
    print("\ninstrumented check (analytic == measured):")
    ok = True
    for layer in report.layers:
        nm = naive_meas.get(layer.name, 0)
        sm = stream_meas.get(layer.name, 0)
        match = nm == layer.naive_mults and sm == layer.streaming_mults
        ok = ok and match
        print(f"{layer.name:>8}  naive {layer.naive_mults} == {nm}  "
              f"streaming {layer.streaming_mults} == {sm}  "
              f"{'ok' if match else 'MISMATCH'}")
    print(f"measurement wall time: {elapsed * 1e3:.1f} ms (not asserted)")
    if not ok:
        print("error: instrumented tallies diverge from analytic counts",
              file=sys.stderr)
        return 1
    return 0


def _cmd_oracle_check(args) -> int:
    if args.count <= 0:
        print("oracle-check: nothing to do")
        return 0
    stft_cfg = PRESETS["rt"]
    guard = stft_cfg.window_size
    worst = float("inf")
    for i in range(args.count):
        truth = sample_scenario(args.seed + i)
        sig_d, _, sig_n = oracle_reconstruct(truth, stft_cfg)
        interior = slice(guard, len(truth.x) - guard)
        sd = si_sdr(truth.y_d.samples[interior], sig_d.samples[interior])
        sn = si_sdr(truth.y_n.samples[interior], sig_n.samples[interior])
        worst = min(worst, sd, sn)
        print(f"mixture {i}: SI-SDR direct {sd:.1f} dB, noise {sn:.1f} dB")
    print(f"min SI-SDR over {args.count} mixture(s): {worst:.1f} dB "
          f"(floor {ORACLE_SI_SDR_FLOOR_DB:.0f} dB)")
    if worst < ORACLE_SI_SDR_FLOOR_DB:
        print("error: oracle reconstruction below the SI-SDR floor", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "enhance": _cmd_enhance,
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "bench-ops": _cmd_bench_ops,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
