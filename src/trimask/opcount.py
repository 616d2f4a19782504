"""Analytic multiplication counts for naive vs streaming execution.

Naive cost is one full forward pass over the analysis window per emitted
frame. Streaming cost is the steady-state work of one push: one new frame
per encoder layer plus the few decoder frames feeding the single emitted
output. Forward convolutions count out_positions x kernel_volume x in_ch x
out_ch; transposed convolutions count in_positions x kernel_volume x in_ch x
out_ch (the same total in gather or scatter form). Bias adds and activation
multiplies are not counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .streaming import StreamPlan, StreamState, stream_push
from .types import FEATURE_CHANNELS
from .unet import HEAD_CHANNELS, UNetConfig, random_weights, unet_forward


@dataclass(frozen=True)
class LayerOps:
    name: str
    naive_mults: int
    streaming_mults: int

    @property
    def reduction(self) -> float:
        if self.naive_mults == 0:
            return 0.0
        return 1.0 - self.streaming_mults / self.naive_mults


@dataclass
class OpCountReport:
    layers: list

    @property
    def naive_total(self) -> int:
        return sum(l.naive_mults for l in self.layers)

    @property
    def streaming_total(self) -> int:
        return sum(l.streaming_mults for l in self.layers)

    @property
    def overall_reduction(self) -> float:
        if self.naive_total == 0:
            return 0.0
        return 1.0 - self.streaming_total / self.naive_total

    def to_text(self) -> str:
        rows = [f"{'layer':>8}  {'naive':>14}  {'streaming':>14}  {'reduction':>9}"]
        for l in self.layers:
            rows.append(f"{l.name:>8}  {l.naive_mults:>14}  {l.streaming_mults:>14}  "
                        f"{100.0 * l.reduction:>8.2f}%")
        rows.append(f"{'total':>8}  {self.naive_total:>14}  {self.streaming_total:>14}  "
                    f"{100.0 * self.overall_reduction:>8.2f}%")
        return "\n".join(rows)

    def to_json_dict(self) -> dict:
        return {
            "layers": [
                {"name": l.name, "naive_mults": l.naive_mults,
                 "streaming_mults": l.streaming_mults, "reduction": l.reduction}
                for l in self.layers
            ],
            "naive_total": self.naive_total,
            "streaming_total": self.streaming_total,
            "overall_reduction": self.overall_reduction,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def count_ops(cfg: UNetConfig) -> OpCountReport:
    """Per-layer multiplication counts for one emitted frame, naive and streaming."""
    plan = StreamPlan(cfg)
    enc_shapes = cfg.encoder_shapes()
    dec_shapes = cfg.decoder_shapes()

    layers = []
    for i, (spec, in_ch) in enumerate(zip(cfg.encoder, cfg.in_channels)):
        fo, to = enc_shapes[i + 1]
        per_frame = fo * spec.kernel_f * spec.kernel_t * in_ch * spec.out_ch
        layers.append(LayerOps(f"enc{i + 1}", naive_mults=per_frame * to,
                               streaming_mults=per_frame))
    for step, spec, in_ch in zip(plan.steps, cfg.decoder, cfg.in_channels[cfg.depth:]):
        fi, ti = dec_shapes[step.layer - 1]
        per_tap = fi * spec.kernel_f * in_ch * spec.out_ch
        n_taps = sum(len(row) for row in step.taps)
        layers.append(LayerOps(f"dec{step.layer}", naive_mults=per_tap * ti * spec.kernel_t,
                               streaming_mults=per_tap * n_taps))
    per_frame = HEAD_CHANNELS * cfg.decoder_channels[-1] * cfg.in_bins
    layers.append(LayerOps("head", naive_mults=per_frame * cfg.in_frames,
                           streaming_mults=per_frame))
    return OpCountReport(layers=layers)


def measured_ops(cfg: UNetConfig):
    """Run both backends on random data and return their per-layer
    instrumented multiply tallies: (naive_counts, streaming_per_push).

    The streaming figure is a steady-state per-push delta, taken after the
    first emission. The tallies follow from the GEMM shapes alone, so the
    data is drawn from a fixed seed.
    """
    weights = random_weights(cfg, 0)
    rng = np.random.default_rng(1)
    frame = (FEATURE_CHANNELS, cfg.in_bins)

    naive_counts: dict = {}
    window = rng.standard_normal(frame + (cfg.in_frames,)).astype(weights.dtype)
    unet_forward(window, weights, cfg, counter=naive_counts)

    state = StreamState(cfg, weights)
    for _ in range(cfg.in_frames):
        stream_push(rng.standard_normal(frame).astype(weights.dtype), state)
    before = dict(state.op_counter)
    stream_push(rng.standard_normal(frame).astype(weights.dtype), state)
    per_push = {k: state.op_counter.get(k, 0) - before.get(k, 0) for k in naive_counts}
    return naive_counts, per_push
