#!/usr/bin/env python3
"""Why closure matters: monomials blow up where logistic lifts stay bounded.

For the scalar field dy/dt = y^2, the time derivative of y^n is n y^(n+1),
always one degree above a degree-n monomial dictionary.  The best least
squares fit over any interval leaves a residual that grows like y^(n+1)
outside it.  A bounded-box SILL fit of the same field has no such
explosion: every dictionary function is bounded, and so is the residual.
"""

import numpy as np

from sillkoop import (
    ConjLogistic,
    SillDictionary,
    SnapshotSet,
    fit_generator,
    join_completion,
    polynomial_residual_growth,
    residual,
)

print("monomial dictionaries {1, y, ..., y^n} fitting d(y^n)/dt = n y^(n+1)")
print("least squares over y in [-10, 10], residual evaluated far outside:\n")
print("   n    residual(1e2)    residual(1e3)    residual(1e4)   log-log slope")
for n in (1, 2, 3):
    _, growth, slope = polynomial_residual_growth(n, np.linspace(-10, 10, 201))
    # entries 0, 4 and 8 of GROWTH_POINTS = logspace(2, 4, 9): 1e2, 1e3, 1e4
    r = growth[::4]
    print(f"   {n}    {r[0]: .6e}   {r[1]: .6e}   {r[2]: .6e}   {slope:.4f}")
print("\nthe slope is n + 1: no finite monomial dictionary closes this field,")
print("and the ratio residual / y^(n+1) tends to n (leading-term domination)")

# the same field fitted with a SILL dictionary over a bounded box
centers = [-1.5, -0.9, -0.3, 0.3, 0.9, 1.5]
d = SillDictionary(1, tuple(ConjLogistic([c], [6.0]) for c in centers))
grid = np.linspace(-2.0, 2.0, 81)[:, None]
snaps = SnapshotSet(grid, grid**2, "CT")
model = fit_generator(snaps, join_completion(d), ridge=1e-10)
norms = np.linalg.norm(residual(model, snaps), axis=1)
print(f"\nSILL fit of dy/dt = y^2 on [-2, 2] with {len(centers)} logistics:")
print(f"  residual max row norm  {norms.max():.4e}")
print(f"  residual mean row norm {norms.mean():.4e}")
print("  bounded box, bounded dictionary, bounded residual: the contrast")
print("  with the monomial blowup is the whole argument for logistic lifts")
