"""Exact separation with analytically fitted masks.

Generates a reverberant + noisy mixture with known components, fits a mask
pair per component by inverting the triangle construction, decomposes the
mixture, and measures how exactly each component is recovered.
"""

import tempfile
from pathlib import Path

import numpy as np

from trimask import oracle_reconstruct, sample_scenario, si_sdr, write_wav
from trimask.spectral import RT_PRESET

print("sampling a 2-second scenario (seeded room, SNR, sources)...")
truth = sample_scenario(2024)
print(f"  requested SNR {truth.snr_db:+.1f} dB, t60 {truth.t60:.2f} s")

print("fitting oracle masks and reconstructing components through iSTFT...")
sig_d, sig_r, sig_n = oracle_reconstruct(truth, RT_PRESET)

guard = RT_PRESET.window_size
interior = slice(guard, len(truth.x) - guard)
for name, ref, est in (("direct", truth.y_d, sig_d),
                       ("reverb", truth.y_r, sig_r),
                       ("noise ", truth.y_n, sig_n)):
    score = si_sdr(ref.samples[interior], est.samples[interior])
    print(f"  {name}: SI-SDR {score:7.1f} dB")

resum = sig_d.samples + sig_r.samples + sig_n.samples
print(f"component resum vs mixture round trip: max gap "
      f"{np.abs(resum[interior] - truth.x.samples[interior]).max():.2e}")

out_dir = Path(tempfile.gettempdir()) / "trimask_oracle"  # each run overwrites the last
out_dir.mkdir(exist_ok=True)
for name, sig in (("mixture", truth.x), ("direct_est", sig_d),
                  ("reverb_est", sig_r), ("noise_est", sig_n)):
    write_wav(out_dir / f"{name}.wav", sig)
print(f"wrote mixture and estimates to {out_dir}")
