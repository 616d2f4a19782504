"""Triangle-geometry complex masks, step by step.

A mask pair splits one mixture bin X into Y_k = M_k * X and the rest
Y_notk = M_notk * X. The magnitudes are a shared coefficient beta split by a
sigmoid; the phases come from the law of cosines over the triangle with
sides (1, |M_k|, |M_notk|); a binary sign picks the rotation direction. By
construction M_k + M_notk == 1, so nothing is ever lost.
"""

import numpy as np

from trimask import (MaskLogits, assemble_masks, magnitude_masks, oracle_fit,
                     quadrangle_decompose)


def banner(title):
    print(f"\n=== {title} ===")


full = lambda v: np.full((1, 1), float(v))

banner("magnitude split")
logits = MaskLogits(z_k=full(0.0), z_notk=full(0.0), beta_logit=full(0.0),
                    q0=full(0.0), q1=full(0.0))
mag_k, mag_notk, beta = magnitude_masks(logits)
print(f"balanced logits: sigma = 0.5, beta = 1 + softplus(0) = {beta[0,0]:.6f}")
print(f"both magnitudes {mag_k[0,0]:.6f}: each side exceeds half the mixture,")
print("so the pair meets above the mixture segment and the phases are nonzero.")

banner("the 60-degree pair")
logits = MaskLogits(z_k=full(0.0), z_notk=full(0.0),
                    beta_logit=full(np.log(np.expm1(1.0))),  # beta = 2
                    q0=full(0.0), q1=full(1.0))
field = assemble_masks(logits)
print(f"beta = 2 -> unit magnitudes; masks {field.mask_k[0,0]:.4f} and "
      f"{field.mask_notk[0,0]:.4f}")
print(f"sum = {field.mask_k[0,0] + field.mask_notk[0,0]:.10f}  (equilateral triangle)")

banner("closure under fuzzing")
rng = np.random.default_rng(0)
wild = MaskLogits(z_k=rng.uniform(-10, 10, (200, 200)),
                  z_notk=rng.uniform(-10, 10, (200, 200)),
                  beta_logit=rng.uniform(-10, 10, (200, 200)),
                  q0=rng.uniform(-5, 5, (200, 200)),
                  q1=rng.uniform(-5, 5, (200, 200)))
field = assemble_masks(wild)
closure = np.abs(field.mask_k + field.mask_notk - 1.0)
print(f"40k random bins: max |M_k + M_notk - 1| = {closure.max():.2e}")

banner("quadrangle decomposition")
rng = np.random.default_rng(1)
X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
Y_d = 0.6 * X * np.exp(0.3j)
Y_n = 0.2 * X * np.exp(-0.8j)
field_d = assemble_masks(oracle_fit(X, Y_d))
field_n = assemble_masks(oracle_fit(X, Y_n))
est_d, est_r, est_n = quadrangle_decompose(X, field_d, field_n)
print("two mask pairs (direct vs rest, noise vs rest) pin three corners;")
print("the reverberation is whatever remains, X - Y_d - Y_n:")
print(f"  |est_d - Y_d| max = {np.abs(est_d - Y_d).max():.2e}")
print(f"  |est_n - Y_n| max = {np.abs(est_n - Y_n).max():.2e}")
print(f"  |est_d + est_r + est_n - X| max = {np.abs(est_d + est_r + est_n - X).max():.2e}")
