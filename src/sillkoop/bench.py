"""Closed-form vector fields, RK4 trajectories and exact-derivative snapshots.

A vector field is any callable fn(y) that maps a (..., m) batch of
points to the field there, same shape; spanned_field gives a
dictionary-spanned one.  Snapshots pair measurements with derivatives
computed analytically from the field, never differenced from
trajectories, so regression targets are exact to machine precision.  The
module also carries the polynomial non-closure demonstration: for the
scalar quadratic field the Lie derivative of y^n is n y^(n+1), one degree
above any polynomial dictionary, and the best least-squares fit leaves a
residual growing like y^(n+1).
"""

from __future__ import annotations

import numpy as np

from .closure import SpannedField
from .regression import SnapshotSet

__all__ = [
    "rk4_integrate",
    "spanned_field",
    "make_snapshots",
    "polynomial_residual_growth",
]

# where the residual's growth is read, far outside every fit range in use
GROWTH_POINTS = np.logspace(2, 4, 9)
GROWTH_POINTS.setflags(write=False)


def rk4_integrate(fn, y0, dt: float, steps: int) -> tuple:
    """Classical fourth-order Runge-Kutta at fixed dt; returns (y, diverged).

    y has one row per step, row 0 being y0.  A non-finite state truncates
    y and sets diverged; overflow on an unstable field is reported through
    that flag, not a warning.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = np.array(y0, dtype=float)
    y = np.empty((steps + 1, *x.shape))
    y[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            k1 = fn(x)
            k2 = fn(x + 0.5 * dt * k1)
            k3 = fn(x + 0.5 * dt * k2)
            k4 = fn(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                return y[:i], True
            y[i] = x
    return y, False


def spanned_field(sf: SpannedField):
    """The dictionary-spanned field as a callable: sf.evaluate.

    It is bounded by the row sums of |W|.
    """
    return sf.evaluate


def make_snapshots(fn, points) -> SnapshotSet:
    """CT snapshots with derivatives evaluated exactly from the field fn.

    fn is called once, on the whole (P, m) batch of points; SnapshotSet
    refuses a result that is not of the batch's shape.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return SnapshotSet(pts, fn(pts), "CT")


def polynomial_residual_growth(n: int, y_values):
    """Fit d(y^n)/dt = n y^(n+1) for the field dy/dt = y^2 over {1..y^n}.

    Returns (coeffs, growth_residual, slope).  The target sits one
    polynomial degree above the dictionary, so the least-squares residual
    over the sampled interval cannot cancel the leading term; evaluated at
    GROWTH_POINTS, far outside, it grows like y^(n+1), its log-log slope
    approaching n + 1.  A degree whose target overflows on the samples or
    at GROWTH_POINTS is refused before the fit.
    """
    if int(n) != n or n < 1:
        raise ValueError("degree must be a positive integer")
    y = np.asarray(y_values, dtype=float)
    if y.ndim != 1 or y.size < n + 2:
        raise ValueError("need a 1-D sample grid with more points than coefficients")
    top = max(np.abs(y).max(), GROWTH_POINTS[-1])
    with np.errstate(over="ignore"):
        if not np.isfinite(n * top ** (n + 1)):
            raise ValueError(f"degree {n}: the target n y^(n+1) overflows at |y| = {top:.6g}")
    V = np.vander(y, int(n) + 1, increasing=True)
    target = n * y ** (n + 1)
    coeffs, *_ = np.linalg.lstsq(V, target, rcond=None)
    g = GROWTH_POINTS
    growth_residual = n * g ** (n + 1) - np.polynomial.polynomial.polyval(g, coeffs)
    slope = np.polyfit(np.log(g), np.log(np.abs(growth_residual)), 1)[0]
    return coeffs, growth_residual, float(slope)

