#!/usr/bin/env python3
"""Fit a Koopman generator to exact snapshots and predict a trajectory.

The ground truth is a field spanned by the dictionary's own logistics, so
the only approximation is how well the lifted coordinates close under the
generator.  The fitted linear model is stepped in the lifted space with its
exact propagator and compared against a direct Runge-Kutta integration of
the true field.
"""

import numpy as np

from sillkoop import (
    ConjLogistic,
    SillDictionary,
    SpannedField,
    fit_generator,
    join_completion,
    lattice_grid,
    make_snapshots,
    predict_ct,
    residual,
    rk4_integrate,
    spanned_field,
)

d = SillDictionary(
    2,
    (
        ConjLogistic([-0.6, 0.4], [4.0, 5.0]),
        ConjLogistic([0.5, -0.3], [5.0, 4.0]),
        ConjLogistic([0.0, 0.8], [4.5, 4.5]),
    ),
)
W = np.array([[0.6, -0.8, 0.3], [-0.5, 0.4, 0.6]])
sf = SpannedField(d, W)
field = spanned_field(sf)
print("field: dy/dt = W . Lambda(y) with", d.n_logistic, "logistics on m = 2")

# join-complete so the products appearing in the Lie derivatives have
# their limiting dictionary functions available to the regression
completed = join_completion(d)
print("dictionary completed:", d.n_logistic, "->", completed.n_logistic, "logistics")

train = lattice_grid([(-2.5, 2.5), (-2.5, 2.5)], 11)
snaps = make_snapshots(field, train)
model = fit_generator(snaps, completed, ridge=1e-10)
norms = np.linalg.norm(residual(model, snaps), axis=1)
print(f"training residual: max row norm {norms.max():.3e}, "
      f"mean {norms.mean():.3e}")

print("\ngenerator spectrum (diagnostic only):")
eig = np.linalg.eigvals(model.K)
print("  ", np.round(np.sort_complex(eig)[:6], 3), "...")

y0 = np.array([-1.2, 0.9])
horizon, dt = 4.0, 1e-3
truth, _ = rk4_integrate(field, y0, dt, int(horizon / dt))
koop, diverged = predict_ct(model, y0, horizon, dt)
print(f"\nintegrating from y0 = {y0} for t in [0, {horizon}]")
print("koopman prediction diverged:", diverged)

print("\n   t      true y1   koopman y1   true y2   koopman y2")
for k in range(0, truth.shape[0], 800):
    t = k * dt
    print(
        f"  {t:4.1f}   {truth[k, 0]: .5f}  {koop[k, 0]: .5f}    "
        f"{truth[k, 1]: .5f}  {koop[k, 1]: .5f}"
    )
err = np.abs(truth - koop).max()
short = np.abs(truth[:1000] - koop[:1000]).max()
print(f"\nmax |true - koopman| over t <= 1: {short:.3e}, over the full horizon: {err:.3e}")
print("the drift is the closure residual integrating up; steeper logistics")
print("shrink it exponentially (see 04_closure_bounds.py)")
