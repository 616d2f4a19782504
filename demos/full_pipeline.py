"""End-to-end enhancement: simulate, separate, remix, compress, measure.

Runs the full engine (random weights: the pipeline plumbing is exact even
when the network is untrained) and reports the component closure, backend
agreement, and evaluation metrics.
"""

import tempfile
from pathlib import Path

import numpy as np

from trimask import (DrcConfig, count_ops, enhance, phase_distance, random_weights,
                     sample_scenario, si_sdr, stft, write_wav)
from trimask.spectral import RT_PRESET
from trimask.unet import config_for_preset

truth = sample_scenario(7, snr_db=10.0, t60=0.4)
x = truth.x.samples[:16000]
print(f"mixture: 1 s at SNR {truth.snr_db:+.0f} dB, t60 {truth.t60:.2f} s")

stft_cfg = RT_PRESET
cfg = config_for_preset(stft_cfg, lookahead_ms=32.0)
weights = random_weights(cfg, 13, dtype=np.float64)

print("\ncausal streaming pass (one emission per frame after warmup)...")
result = enhance(x, weights, cfg, stft_cfg, mode="causal-stream",
                 reverb_gain_db=-15.0, drc=DrcConfig())
print(f"  masked {result.frames_emitted}/{result.frames_total} frames")

resum = result.direct.samples + result.reverb.samples + result.noise.samples
print("\ncomponent closure (independent of weights):")
spec = stft(x, stft_cfg)
print(f"  direct + reverb + noise spans the mixture's analyzed band; "
      f"resum RMS {np.sqrt(np.mean(resum**2)):.4f} vs input {np.sqrt(np.mean(x**2)):.4f}")

print("\nwindowed backend on the same signal (same math, more work)...")
windowed = enhance(x, weights, cfg, stft_cfg, mode="noncausal-window",
                   reverb_gain_db=-15.0, drc=DrcConfig())
gap = np.max(np.abs(result.remixed.samples - windowed.remixed.samples))
print(f"  max remix difference causal vs windowed: {gap:.2e}")

print("\nmetrics of the (untrained) direct estimate against the true direct path:")
n = min(len(result.direct), len(truth.y_d))
print(f"  SI-SDR {si_sdr(truth.y_d.samples[:n], result.direct.samples[:n]):.2f} dB")
pd = phase_distance(stft(truth.y_d.samples[:n], stft_cfg),
                    stft(result.direct.samples[:n], stft_cfg))
print(f"  phase distance {pd:.1f} deg")

out_dir = Path(tempfile.gettempdir()) / "trimask_pipeline"  # each run overwrites the last
out_dir.mkdir(exist_ok=True)
write_wav(out_dir / "input.wav", x)
write_wav(out_dir / "remixed.wav", result.remixed)
print(f"\nper-layer cost model:\n{count_ops(cfg).to_text()}")
print(f"\nwrote input/remixed WAVs to {out_dir}")
