"""Triangle-geometry complex masks, step by step.

A mask pair splits one mixture bin X into Y_k = M_k * X and the rest
Y_notk = M_notk * X. The magnitudes are a shared coefficient beta split by a
sigmoid; the phases close the triangle with sides (1, |M_k|, |M_notk|); a
binary sign picks the rotation direction. The mask comes in closed form from
the sides, with d = |M_k| - |M_notk|:

    M_k = [(1 + beta*d) + i*xi*sqrt((beta^2 - 1)(1 - d^2))] / 2

and M_notk = 1 - M_k, so nothing is ever lost.
"""

import numpy as np

from trimask import MaskLogits, assemble_masks, oracle_fit, quadrangle_decompose


def banner(title):
    print(f"\n=== {title} ===")


full = lambda v: np.full((1, 1), float(v))

banner("magnitude split")
logits = MaskLogits(z_k=full(0.0), z_notk=full(0.0), beta_logit=full(0.0),
                    q0=full(0.0), q1=full(0.0))
mask_k = assemble_masks(logits)[0, 0]
print(f"balanced logits: sigma = 0.5, beta = 1 + softplus(0) = {1 + np.log(2):.6f}")
print(f"both magnitudes {abs(mask_k):.6f} and {abs(1 - mask_k):.6f}: each side exceeds")
print("half the mixture, so the pair meets above the mixture segment and the")
print(f"phases are nonzero: M_k = {mask_k:.4f}")

banner("the 60-degree pair")
logits = MaskLogits(z_k=full(0.0), z_notk=full(0.0),
                    beta_logit=full(np.log(np.expm1(1.0))),  # beta = 2
                    q0=full(0.0), q1=full(1.0))
mask_k = assemble_masks(logits)[0, 0]
print(f"beta = 2 -> unit magnitudes; masks {mask_k:.4f} and {1 - mask_k:.4f}")
print(f"angle of M_k = {np.degrees(np.angle(mask_k)):.10f} degrees  (equilateral triangle)")

banner("the sides under fuzzing")
rng = np.random.default_rng(0)
wild = MaskLogits(z_k=rng.uniform(-10, 10, (200, 200)),
                  z_notk=rng.uniform(-10, 10, (200, 200)),
                  beta_logit=rng.uniform(-10, 10, (200, 200)),
                  q0=rng.uniform(-5, 5, (200, 200)),
                  q1=rng.uniform(-5, 5, (200, 200)))
mask_k = assemble_masks(wild)
gap = np.abs(np.abs(mask_k) - np.abs(1 - mask_k))
clipped = gap == 1.0
print(f"40k random bins: max ||M_k| - |M_notk|| = {gap.max():.15f} (triangle inequality)")
print(f"{clipped.mean():.1%} of them had beta clipped: collinear, max |Im M_k| there = "
      f"{np.abs(mask_k.imag[clipped]).max():.1f}")

banner("quadrangle decomposition")
rng = np.random.default_rng(1)
X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
Y_d = 0.6 * X * np.exp(0.3j)
Y_n = 0.2 * X * np.exp(-0.8j)
# both masks go into rows 0 and 2 of one stack, which the decomposition fills
stack = np.empty((3, 4, 4), dtype=complex)
assemble_masks(oracle_fit(X, Y_d), out=stack[0])
assemble_masks(oracle_fit(X, Y_n), out=stack[2])
est_d, est_r, est_n = quadrangle_decompose(X, stack)
print("two mask pairs (direct vs rest, noise vs rest) pin three corners;")
print("the reverberation is whatever remains, X - Y_d - Y_n:")
print(f"  |est_d - Y_d| max = {np.abs(est_d - Y_d).max():.2e}")
print(f"  |est_n - Y_n| max = {np.abs(est_n - Y_n).max():.2e}")
print(f"  |est_d + est_r + est_n - X| max = {np.abs(est_d + est_r + est_n - X).max():.2e}")
