"""Sample-in/sample-out enhancement in 10 ms chunks.

StreamingEnhancer takes audio as it arrives and returns every output sample
that no later input can change. A sample is final once the frame starting
at or before it has its mask, which needs one analysis window plus the
network's lookahead: that is the algorithmic latency. The compute latency is
what one 10 ms chunk costs; it must stay below 10 ms to keep up. The
streamed output equals `enhance` of the whole signal.
"""

import time

import numpy as np

from trimask import (PRESETS, SAMPLE_RATE, StreamingEnhancer, config_for_preset, enhance,
                     random_weights, sample_scenario)

stft_cfg = PRESETS["rt"]
cfg = config_for_preset(stft_cfg)
weights = random_weights(cfg, 7)
x = sample_scenario(3).x.samples  # 2 s mixture
chunk = SAMPLE_RATE // 100  # 10 ms

latency = stft_cfg.window_size + cfg.lookahead_frames * stft_cfg.hop_size
print(f"rt preset: window {stft_cfg.window_size}, hop {stft_cfg.hop_size}, "
      f"lookahead {cfg.lookahead_frames} frames")
print(f"algorithmic latency: window + lookahead = {latency} samples "
      f"= {1000 * latency / SAMPLE_RATE:.1f} ms")

engine = StreamingEnhancer(weights, cfg, stft_cfg)
outputs, compute_ms, lag = [], [], 0
fed = produced = 0
for start in range(0, len(x), chunk):
    block = x[start : start + chunk]
    t = time.perf_counter()
    out = engine.process(block)
    compute_ms.append(1000 * (time.perf_counter() - t))
    outputs.append(out.remixed)
    fed += len(block)
    produced += len(out.remixed)
    lag = max(lag, fed - produced)
outputs.append(engine.flush().remixed)
streamed = np.concatenate(outputs)

print(f"\n{len(compute_ms)} chunks of {chunk} samples "
      f"({engine.frames_total} frames, {engine.frames_emitted} masked by the network)")
print(f"per-chunk compute: p50 {np.percentile(compute_ms, 50):.2f} ms, "
      f"p99 {np.percentile(compute_ms, 99):.2f} ms "
      f"(a chunk lasts {1000 * chunk / SAMPLE_RATE:.0f} ms)")
print(f"largest input-to-output lag after a chunk: {lag} samples = "
      f"{1000 * lag / SAMPLE_RATE:.1f} ms (never above the algorithmic latency)")

whole = enhance(x, weights, cfg, stft_cfg).remixed.samples
print(f"\nmax |streamed - enhance(whole signal)| = {np.max(np.abs(streamed - whole)):.1e}")
