"""Incremental U-Net inference: same numbers, a fraction of the work.

The windowed (naive) backend recomputes a full forward pass over the
65-frame analysis window for every emitted frame. The streaming backend
keeps per-layer frame queues so each push computes one new frame per
encoder layer plus the handful of decoder frames feeding the single output.
Both emit the same (10, bins) head frame.
"""

import numpy as np

from trimask import count_ops, default_config, naive_infer, random_weights, required_queues
from trimask.streaming import StreamState, stream_push
from trimask.types import FEATURE_CHANNELS

cfg = default_config()
print(f"default architecture: {cfg.depth} encoder layers, input "
      f"{cfg.in_bins} bins x {cfg.in_frames} frames x {FEATURE_CHANNELS} channels, "
      f"lookahead {cfg.lookahead_frames} frames")

print("\nstride-phase queues per depth (prod of temporal strides):")
for d in range(1, cfg.depth + 1):
    print(f"  depth {d}: {required_queues(cfg, d)}")

print("\nper-frame multiplication counts:")
report = count_ops(cfg)
print(report.to_text())

print("\nequivalence check: stream 80 frames, compare every emission against")
print("a fresh windowed pass over the same 65-frame window...")
weights = random_weights(cfg, 7, dtype=np.float64)
rng = np.random.default_rng(42)
feats = rng.standard_normal((5, 80, 253))

state = StreamState(cfg, weights)
worst = 0.0
emitted = 0
for t in range(80):
    out = stream_push(feats[:, t, :], state)
    if out is None:
        continue
    emitted += 1
    window = feats[:, t - 64 : t + 1, :]
    ref = naive_infer(window, weights, cfg)
    worst = max(worst, float(np.max(np.abs(out - ref))))
print(f"  {emitted} emissions, max |stream - windowed| = {worst:.2e}")
print(f"  steady-state work per frame: {report.streaming_total:,} multiplications "
      f"vs {report.naive_total:,} naive "
      f"({100 * report.overall_reduction:.1f}% reduction)")
