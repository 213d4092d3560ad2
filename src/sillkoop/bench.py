"""Benchmark vector fields and exact-derivative snapshot generation.

Snapshots pair measurements with derivatives computed analytically from
closed-form fields, never differenced from trajectories, so regression
targets are exact to machine precision.  The module also carries the
polynomial non-closure demonstration: for the scalar quadratic field the
Lie derivative of y^n is n y^(n+1), one degree above any polynomial
dictionary, and the best least-squares fit leaves a residual growing like
y^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closure import SpannedField
from .regression import SnapshotSet, Trajectory

__all__ = [
    "VectorField",
    "PolynomialDictionary",
    "PolynomialGrowthResult",
    "rk4_integrate",
    "spanned_field",
    "make_snapshots",
    "polynomial_residual_growth",
    "builtin_fields",
    "corpus_manifest",
]


@dataclass(frozen=True)
class VectorField:
    """A closed-form field dy/dt = fn(y) on a declared domain box."""

    name: str
    m: int
    fn: callable
    domain: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        if len(box) != self.m or any(hi <= lo for lo, hi in box):
            raise ValueError("domain must list one (lo, hi) pair per dimension")
        object.__setattr__(self, "domain", box)

    def eval(self, y):
        out = np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=float)
        if out.shape != (self.m,):
            raise ValueError(f"{self.name}: field returned shape {out.shape}")
        return out


@dataclass(frozen=True)
class PolynomialDictionary:
    """Scalar monomial basis {1, y, y^2, ..., y^degree}."""

    degree: int

    def __post_init__(self):
        if int(self.degree) != self.degree or self.degree < 1:
            raise ValueError("degree must be a positive integer")
        object.__setattr__(self, "degree", int(self.degree))

    def design_matrix(self, y):
        return np.vander(np.asarray(y, dtype=float), self.degree + 1, increasing=True)


def rk4_integrate(F: VectorField, y0, dt: float, steps: int) -> Trajectory:
    """Classical fourth-order Runge-Kutta at fixed dt; row 0 is y0.

    A non-finite state truncates the trajectory and sets the divergence
    flag; overflow on an unstable field is reported through that flag,
    not a warning.
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
            k1 = F.fn(x)
            k2 = F.fn(x + 0.5 * dt * k1)
            k3 = F.fn(x + 0.5 * dt * k2)
            k4 = F.fn(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                return Trajectory(y[:i], True)
            y[i] = x
    return Trajectory(y, False)


def spanned_field(sf: SpannedField) -> VectorField:
    """Wrap a dictionary-spanned field as a benchmark VectorField.

    The domain box extends two units beyond the extreme centers in every
    dimension; the field itself is bounded by the row sums of |W|.
    """
    mus = sf.dictionary.mu
    box = tuple((float(lo) - 2.0, float(hi) + 2.0) for lo, hi in zip(mus.min(0), mus.max(0)))
    return VectorField(
        name="spanned-logistic",
        m=sf.dictionary.m,
        fn=sf.evaluate,
        domain=box,
        params={"n_logistic": sf.dictionary.n_logistic},
    )


def make_snapshots(F: VectorField, points) -> SnapshotSet:
    """CT snapshots with derivatives evaluated exactly from the field."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != F.m:
        raise ValueError(f"points must have {F.m} columns, got {pts.shape}")
    D = np.stack([F.eval(p) for p in pts])
    return SnapshotSet(pts, D, "CT")


@dataclass(frozen=True)
class PolynomialGrowthResult:
    """Least-squares residual of d(y^n)/dt over a monomial dictionary.

    coeffs are the fitted monomial coefficients; growth arrays evaluate
    the residual n y^(n+1) - p(y) at large y, where its log-log slope
    approaches n + 1 and residual / y^(n+1) approaches n.
    """

    degree: int
    coeffs: np.ndarray
    sample_y: np.ndarray
    sample_residual: np.ndarray
    growth_y: np.ndarray
    growth_residual: np.ndarray
    growth_ratio: np.ndarray
    growth_slope: float


def polynomial_residual_growth(n: int, y_values, growth_points=None) -> PolynomialGrowthResult:
    """Fit d(y^n)/dt = n y^(n+1) for the field dy/dt = y^2 over {1..y^n}.

    The target sits one polynomial degree above the dictionary, so the
    least-squares residual over the sampled interval cannot cancel the
    leading term; evaluated far outside, it grows like y^(n+1).
    """
    basis = PolynomialDictionary(n)
    y = np.asarray(y_values, dtype=float)
    if y.ndim != 1 or y.size < n + 2:
        raise ValueError("need a 1-D sample grid with more points than coefficients")
    V = basis.design_matrix(y)
    target = n * y ** (n + 1)
    coeffs, *_ = np.linalg.lstsq(V, target, rcond=None)
    sample_residual = target - V @ coeffs
    if growth_points is None:
        growth_points = np.logspace(2, 4, 9)
    g = np.asarray(growth_points, dtype=float)
    growth_residual = n * g ** (n + 1) - np.polynomial.polynomial.polyval(g, coeffs)
    growth_ratio = growth_residual / g ** (n + 1)
    slope = np.polyfit(np.log(g), np.log(np.abs(growth_residual)), 1)[0]
    return PolynomialGrowthResult(
        degree=n,
        coeffs=coeffs,
        sample_y=y,
        sample_residual=sample_residual,
        growth_y=g,
        growth_residual=growth_residual,
        growth_ratio=growth_ratio,
        growth_slope=float(slope),
    )


def _quadratic(y):
    return y * y


def _logistic_growth(y):
    return y * (1.0 - y)


def _van_der_pol(y):
    return np.array([y[1], (1.0 - y[0] ** 2) * y[1] - y[0]])


def builtin_fields():
    """The benchmark corpus: two scalar fields and a planar limit cycle."""
    return [
        VectorField("quadratic", 1, _quadratic, ((-2.0, 2.0),)),
        VectorField("logistic-growth", 1, _logistic_growth, ((-0.5, 1.5),)),
        VectorField(
            "van-der-pol",
            2,
            _van_der_pol,
            ((-3.0, 3.0), (-3.0, 3.0)),
            params={"mu": 1.0},
        ),
    ]


def corpus_manifest(fields=None) -> dict:
    """JSON-ready description of the field corpus: name, m, domain, params."""
    fields = builtin_fields() if fields is None else fields
    return {
        "fields": [
            {
                "name": f.name,
                "m": f.m,
                "domain": [list(pair) for pair in f.domain],
                "params": f.params,
            }
            for f in fields
        ]
    }
