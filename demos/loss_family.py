"""The multi-scale cosine-similarity loss family.

Per-segment cosine similarity rewards waveform alignment irrespective of
scale; summing it over segment lengths from ~32 ms to ~254 ms captures
structure at several granularities; pre-emphasis and mu-law companding
re-weight high frequencies and low amplitudes before comparison.
"""

import numpy as np

from trimask import emphasized_loss, loss_gradient, mu_law, multiscale_loss, pre_emphasis

rng = np.random.default_rng(3)
n = 16256
y = rng.uniform(-0.4, 0.4, n)

print("loss values against increasingly wrong estimates:")
print(f"  {'estimate':>24}  {'multiscale':>10}  {'emphasized':>10}")
for label, yhat in (
    ("perfect", y.copy()),
    ("scaled by 0.3", 0.3 * y),
    ("small noise added", y + 0.05 * rng.standard_normal(n)),
    ("heavy noise added", y + 0.5 * rng.standard_normal(n)),
    ("unrelated noise", rng.uniform(-0.4, 0.4, n)),
    ("polarity flipped", -y),
):
    print(f"  {label:>24}  {multiscale_loss(y, yhat):>10.4f}  "
          f"{emphasized_loss(y, yhat):>10.4f}")
print("(4 scales: perfect alignment = -4 / -12; flipped = +4 / +12;")
print(" scaling leaves the unemphasized loss untouched)")

print("\nemphasis stages on a sample snippet:")
snippet = y[:8]
print(f"  raw:          {np.array2string(snippet, precision=3)}")
print(f"  pre-emphasis: {np.array2string(pre_emphasis(snippet).samples, precision=3)}")
print(f"  mu-law:       {np.array2string(mu_law(snippet).samples, precision=3)}")

print("\nanalytic gradient vs central finite differences (step 1e-6):")
yhat = rng.uniform(-0.4, 0.4, n)
grad = loss_gradient(y, yhat)
for trial in range(3):
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    h = 1e-6
    fd = (emphasized_loss(y, yhat + h * v)
          - emphasized_loss(y, yhat - h * v)) / (2 * h)
    an = float(np.dot(grad, v))
    print(f"  direction {trial}: analytic {an:+.8f}  finite-diff {fd:+.8f}  "
          f"rel err {abs(an - fd) / abs(fd):.2e}")
