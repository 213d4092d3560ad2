#!/usr/bin/env python3
"""Steepness decay of the product-approximation error.

The product of two conjunctive logistics approaches the single logistic
with componentwise-max centers as steepness grows, exponentially fast away
from the center hyperplanes.  This sweep scales both functions' steepness
and fits the decay rate of the worst-case error over a clearance grid.
"""

import numpy as np

from sillkoop import (
    ConjLogistic,
    SillDictionary,
    hyperplane_distance,
    product_approx_decay,
)

rng = np.random.default_rng(0)

f = ConjLogistic([0.0, -0.5], [2.5, 3.0])
g = ConjLogistic([0.8, 0.6], [3.0, 2.5])  # g's centers dominate f's
print("pair of conjunctive logistics (comparable under the center order):")
print("  f: mu =", f.mu, " alpha =", f.alpha)
print("  g: mu =", g.mu, " alpha =", g.alpha)

# sample a grid that keeps clearance 0.5 from every center hyperplane;
# on the hyperplanes themselves the error cannot be steepened away
pair = SillDictionary(2, (f, g))
pts = []
while len(pts) < 40:
    cand = rng.uniform(-3, 3.5, (200, 2))
    keep = hyperplane_distance(cand, pair) >= 0.5
    pts.extend(cand[keep][: 40 - len(pts)])
grid = np.asarray(pts)
print(f"grid: {grid.shape[0]} points, clearance >= 0.5")

scales = [1, 2, 4, 8, 16]
errors, slope, _ = product_approx_decay(f, g, grid, scales)

print("\n scale   max |Lambda_f Lambda_g - Lambda_join|")
for s, e in zip(scales, errors):
    bar = "#" * max(1, int(60 + 2.5 * np.log10(e)))
    print(f"  {s:4.0f}   {e:.6e}  {bar}")
print(f"\nfitted log-error slope per unit scale: {slope:.4f} (negative = decay)")
print(f"error at scale 16 is {errors[-1] / errors[0]:.2e} "
      "of the scale-1 error")
