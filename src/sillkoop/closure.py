"""Closure analysis for SILL dictionaries.

The Lie derivative of a conjunctive logistic along a field spanned by the
dictionary is a weighted sum of bilinear products of logistics.  Each
product converges, exponentially in the steepness scale, to the single
logistic whose parameters are the componentwise-max join of the pair, so
the Lie derivative is approximately linear in a join-completed dictionary.
This module quantifies that chain of approximations:

* the pointwise product-approximation error and its decay in steepness,
* the exact, intermediate, and linear-in-dictionary forms of the Lie
  derivative, with the two error terms separating them,
* grid-based bounds on those errors plus the expectation-based bounds,
  combined into a single uniform closure constant, and
* end-to-end experiments that fit a generator to a spanned field and
  compare its true residual against the bounds across steepness scales.

The forms of all field logistics come from one array pass (one
evaluation each of the per-coordinate factors, the dictionary and the
N_L^2 pairwise joins); the public per-logistic functions read a column.

Maxima over the measurement region are taken over a user-supplied finite
grid that keeps a positive distance delta from the center hyperplanes
(where the product approximation cannot improve), so all reported bounds
are grid surrogates of the continuum quantities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .dictionary import (
    ConjLogistic,
    SillDictionary,
    _check_point,
    _coordinate_sigmoids,
    _join,
    conj_values,
    dominates,
    eval_conjunctive,
    join_completion,
    join_params,
    stable_sigmoid,  # noqa: F401  (still importable as closure.stable_sigmoid)
)
from .errors import ClosureBoundError, IncomparableCentersError
from .regression import SnapshotSet, fit_generator, residual

__all__ = [
    "SpannedField",
    "ClosureReport",
    "DecayFit",
    "product_approx_error",
    "hyperplane_distance",
    "product_approx_decay",
    "lie_derivative_exact",
    "lie_approx_intermediate",
    "lie_approx_linear",
    "error_term_linearization",
    "error_term_bilinear",
    "compute_bounds",
    "closure_experiment",
    "lattice_grid",
    "half_cell_shift",
]


@dataclass(frozen=True)
class SpannedField:
    """A vector field lying exactly in the span of a dictionary's logistics.

    Component i is sum_j W[i, j] * Lambda_j(y); W has shape (m, N_L).
    Used as ground truth in closure experiments, where the only open
    question is how well the Lie derivatives of the lifted coordinates can
    be represented, not whether the field itself is representable.
    """

    dictionary: SillDictionary
    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        expected = (self.dictionary.m, self.dictionary.n_logistic)
        if W.shape != expected:
            raise ValueError(f"W must have shape {expected}, got {W.shape}")
        if not np.isfinite(W).all():
            raise ValueError("W contains non-finite weights")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    def evaluate(self, y):
        """Field value W . Lambda(y); shape (..., m)."""
        vals = conj_values(y, self.dictionary)
        return vals @ self.W.T

    def scaled(self, s: float) -> "SpannedField":
        """Same weights over the steepness-scaled dictionary."""
        return SpannedField(self.dictionary.scaled(s), self.W)


@dataclass(frozen=True)
class ClosureReport:
    """Error bounds and residual statistics for one steepness scale.

    bar_B1 and tilde_B2 are grid maxima of the two approximation-error
    sums; bar_B2 and tilde_B1 are the expectation-based per-term bounds.
    B = min(bar_B1 + bar_B2, tilde_B1 + tilde_B2) is the combined uniform
    bound.  All bounds refer to the worst dictionary function.
    """

    bar_B1: float
    bar_B2: float
    tilde_B1: float
    tilde_B2: float
    B: float
    residual_max: float
    residual_mean: float
    alpha_scale: float
    m: int

    def __post_init__(self):
        for name in ("bar_B1", "bar_B2", "tilde_B1", "tilde_B2", "B"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        combined = min(self.bar_B1 + self.bar_B2, self.tilde_B1 + self.tilde_B2)
        if not np.isclose(self.B, combined, rtol=1e-12, atol=0.0):
            raise ValueError("B must equal min(bar_B1 + bar_B2, tilde_B1 + tilde_B2)")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of max product-approximation error vs steepness scale."""

    alphas: np.ndarray
    max_errors: np.ndarray
    slope: float
    intercept: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        errors = np.asarray(self.max_errors, dtype=float)
        if alphas.shape != errors.shape or alphas.ndim != 1:
            raise ValueError("alphas and max_errors must be matching 1-D arrays")
        if not np.all(np.diff(alphas) > 0):
            raise ValueError("steepness scales must be strictly increasing")
        if not np.all(errors > 0):
            raise ValueError("max errors must be positive")
        alphas.setflags(write=False)
        errors.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "max_errors", errors)


def product_approx_error(f: ConjLogistic, g: ConjLogistic, y):
    """Lambda_f(y) Lambda_g(y) - Lambda_join(f,g)(y); lies in (-1, 1)."""
    if f.m != g.m:
        raise ValueError(f"dimension mismatch: {f.m} vs {g.m}")
    joined = join_params(f, g)
    return eval_conjunctive(y, f) * eval_conjunctive(y, g) - eval_conjunctive(y, joined)


def hyperplane_distance(y, d: SillDictionary):
    """Distance from y to the nearest center hyperplane y_i = mu_ji.

    Zero exactly when some coordinate of y matches some logistic center in
    that coordinate; this is the measure-zero set where the product
    approximation error cannot be reduced by steepening.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != d.m:
        raise ValueError(f"expected points with last dimension {d.m}, got {y.shape}")
    gaps = np.abs(y[..., None, :] - d.mu)
    out = gaps.min(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _as_grid(grid, m: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"grid must be a list of length-{m} points, got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("grid is empty")
    return pts


def product_approx_decay(f: ConjLogistic, g: ConjLogistic, grid, scales) -> DecayFit:
    """Sweep a steepness multiplier and fit the decay of the product error.

    For each scale s, both functions' steepnesses are multiplied by s and
    the max |product_approx_error| over the grid is recorded; the slope of
    log(max error) against s is fitted by ordinary least squares.  A
    negative slope is the expected exponential decay.

    The pair must be comparable under the dominance order (the decay
    guarantee assumes an ordered pair), and no grid point may sit on a
    center hyperplane of either function.
    """
    if not (dominates(f, g) or dominates(g, f)):
        raise IncomparableCentersError(
            "centers admit no dominance order; the steepness-decay guarantee "
            "requires a comparable pair (join-complete the dictionary first)"
        )
    pair_dict = SillDictionary(f.m, (f, g))
    pts = _as_grid(grid, f.m)
    dist = hyperplane_distance(pts, pair_dict)
    if np.any(dist == 0.0):
        bad = int(np.argmin(dist))
        raise ValueError(
            f"grid point {bad} lies on a center hyperplane; the product "
            "approximation error is irreducible there"
        )
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or scales.size < 2:
        raise ValueError("need at least two steepness scales")
    if not np.all(scales > 0) or not np.all(np.diff(scales) > 0):
        raise ValueError("scales must be positive and strictly increasing")
    max_errors = np.empty(scales.size)
    for k, s in enumerate(scales):
        err = np.abs(product_approx_error(f.scaled(s), g.scaled(s), pts))
        max_errors[k] = err.max()
    if np.any(max_errors == 0.0):
        raise ValueError(
            "max product error underflowed to zero at some scale; "
            "reduce the largest scale or move the grid closer to the centers"
        )
    slope, intercept = np.polyfit(scales, np.log(max_errors), 1)
    return DecayFit(scales, max_errors, float(slope), float(intercept))


def _lie_forms(sf: SpannedField, y):
    """Every Lie-derivative form of every field logistic, in one pass.

    Returns the exact, intermediate, linear, linearization, bilinear and
    reference (sum_{i,j} alpha_li W_ij Lambda_l Lambda_j) sums, each of
    shape (..., N_L) with column l for logistic l.
    """
    d, W = sf.dictionary, sf.W
    y = _check_point(y, d.m)
    lam = _coordinate_sigmoids(y[..., None, :], d.mu, d.alpha)  # (..., N_L, m)
    lam_all = conj_values(y, d)  # (..., N_L)
    # the joins of all N_L^2 pairs (l, j) as (N_L, N_L, m) parameter arrays
    mu, alpha = _join(d.mu[:, None], d.alpha[:, None], d.mu, d.alpha)
    lam_star = np.prod(_coordinate_sigmoids(y[..., None, None, :], mu, alpha), axis=-1)
    off, on = d.alpha * (1.0 - lam), d.alpha * lam
    coeff = d.alpha @ W  # coeff[l, j] = sum_i alpha_li W_ij
    return (
        np.einsum("...li,ij,...j->...l", off, W, lam_all) * lam_all,
        np.einsum("...li,ij,...lj->...l", off, W, lam_star),
        np.einsum("lj,...lj->...l", coeff, lam_star),
        np.einsum("...li,ij,...lj->...l", on, W, lam_star),
        np.einsum("...li,ij,...j->...l", on, W, lam_all) * lam_all,
        np.einsum("lj,...j->...l", coeff, lam_all) * lam_all,
    )


def _form(k: int, l: int, sf: SpannedField, y):
    """Column l of the k-th _lie_forms sum; a float at a single point."""
    n = sf.dictionary.n_logistic
    if not 0 <= l < n:
        raise IndexError(f"logistic index {l} out of range for N_L={n}")
    out = _lie_forms(sf, y)[k][..., l]
    return float(out) if out.ndim == 0 else out


def lie_derivative_exact(l: int, sf: SpannedField, y):
    """d/dt of logistic l along the spanned field, as the bilinear sum.

    sum_{i,j} alpha_li W_ij (1 - lambda_li(y_i)) Lambda_l(y) Lambda_j(y);
    identical to grad Lambda_l . F(y) by the chain rule.
    """
    return _form(0, l, sf, y)


def lie_approx_intermediate(l: int, sf: SpannedField, y):
    """The bilinear sum with each product Lambda_l Lambda_j replaced by its join."""
    return _form(1, l, sf, y)


def lie_approx_linear(l: int, sf: SpannedField, y):
    """sum_{i,j} alpha_li W_ij Lambda_star_lj(y): linear in the completed dictionary.

    This is what a single row of a Koopman matrix can represent once the
    joins are dictionary members, so it is the model-facing approximation.
    """
    return _form(2, l, sf, y)


def error_term_linearization(l: int, sf: SpannedField, y):
    """sum_{i,j} alpha_li W_ij lambda_li(y_i) Lambda_star_lj(y).

    Exactly the gap lie_approx_linear - lie_approx_intermediate, since the
    (1 - lambda) and lambda weighted sums add to the unweighted one.
    """
    return _form(3, l, sf, y)


def error_term_bilinear(l: int, sf: SpannedField, y):
    """sum_{i,j} alpha_li W_ij lambda_li(y_i) Lambda_l(y) Lambda_j(y)."""
    return _form(4, l, sf, y)


def compute_bounds(
    sf: SpannedField,
    sample_grid,
    a=None,
    *,
    delta: float = 1e-3,
    alpha_scale: float = 1.0,
) -> ClosureReport:
    """Evaluate the four closure bounds over a finite grid.

    bar_B1 and tilde_B2 are maxima over the grid of the absolute
    approximation-error sums; bar_B2 and tilde_B1 instantiate the
    expectation-based per-term bounds with nu_ij = |alpha_li W_ij|,
    clipped at a^2 when a is given (the sampling model assumes each
    nu_ij < a^2).  The report carries the bounds and residual statistics
    of the worst dictionary function, where the residual is the pointwise
    gap between the exact Lie derivative and its linear-in-dictionary
    approximation.

    Grid points must keep hyperplane distance at least delta; on the
    hyperplanes the product error is irreducible and the grid maxima
    would stop decaying with steepness.
    """
    return _bounds(sf, sample_grid, _nu_clip(a), delta, alpha_scale)[0]


def _nu_clip(a) -> float:
    """a^2, the cap on each nu_ij (inf without one); a must be positive."""
    if a is not None and not a > 0:
        raise ValueError(f"nu clip a must be positive, got {a}")
    return np.inf if a is None else float(a) ** 2


def _bounds(sf: SpannedField, sample_grid, clip: float, delta: float, alpha_scale):
    """compute_bounds' report plus the per-function bar_B1 and bar_B2 arrays."""
    d = sf.dictionary
    pts = _as_grid(sample_grid, d.m)
    if not delta > 0:
        raise ValueError("delta must be positive")
    dist = hyperplane_distance(pts, d)
    if np.any(dist < delta):
        bad = int(np.argmin(dist))
        raise ValueError(
            f"grid point {bad} is within {delta} of a center hyperplane "
            f"(distance {dist.min():.3g})"
        )
    exact, inter, linear, _, _, reference = _lie_forms(sf, pts)
    # grid maxima of |sum|: the signed maxima would not dominate the
    # absolute gaps they are meant to bound
    bar_B1 = np.abs(exact - inter).max(axis=0)
    tilde_B2 = np.abs(reference - linear).max(axis=0)
    nu_sum = np.minimum(np.abs(d.alpha[:, :, None] * sf.W), clip).sum(axis=(1, 2))
    bar_B2 = nu_sum / 2.0 ** (d.m + 1)
    tilde_B1 = nu_sum / 2.0 ** (2 * d.m + 1)
    gap = np.abs(exact - linear)
    worst = int(np.argmax(gap.max(axis=0)))
    b = min(bar_B1[worst] + bar_B2[worst], tilde_B1[worst] + tilde_B2[worst])
    return ClosureReport(
        bar_B1=float(bar_B1[worst]),
        bar_B2=float(bar_B2[worst]),
        tilde_B1=float(tilde_B1[worst]),
        tilde_B2=float(tilde_B2[worst]),
        B=float(b),
        residual_max=float(gap[:, worst].max()),
        residual_mean=float(gap[:, worst].mean()),
        alpha_scale=float(alpha_scale),
        m=d.m,
    ), bar_B1, bar_B2


def lattice_grid(box, points_per_dim: int) -> np.ndarray:
    """Uniform lattice over a box [(lo, hi), ...], shape (p^m, m)."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be a list of (lo, hi) pairs")
    if points_per_dim < 2:
        raise ValueError("need at least two points per dimension")
    if not np.all(box[:, 1] > box[:, 0]):
        raise ValueError("box bounds must satisfy lo < hi")
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def half_cell_shift(box, points_per_dim: int) -> np.ndarray:
    """The same lattice shifted by half a cell in every dimension."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    half = (box[:, 1] - box[:, 0]) / (points_per_dim - 1) / 2.0
    return lattice_grid(box, points_per_dim) + half


def closure_experiment(
    sf: SpannedField,
    grid,
    alpha_scales,
    *,
    ridge: float = 0.0,
    a=None,
    delta: float = 1e-3,
    holdout_grid=None,
    check_bounds: bool = True,
):
    """Fit a generator to the spanned field at each steepness scale.

    Per scale: the dictionary is steepness-scaled and join-completed, a CT
    model is fitted to exact snapshots of the scaled field on the training
    grid, and the model's residual is measured on a held-out grid (the
    training grid shifted by half a cell unless one is supplied).  The
    analytic bounds are evaluated on the held-out grid and paired with the
    measured residuals in one report per scale.

    With check_bounds on, each field logistic's max residual component on
    the held-out grid is required to stay below its bar_B1 + bar_B2 bound.
    """
    pts = _as_grid(grid, sf.dictionary.m)
    if holdout_grid is None:
        held = _default_holdout(pts)
    else:
        held = _as_grid(holdout_grid, sf.dictionary.m)
    scales = np.asarray(alpha_scales, dtype=float)
    if scales.ndim != 1 or scales.size < 1 or not np.all(scales > 0):
        raise ValueError("alpha_scales must be positive")
    clip = _nu_clip(a)
    reports = []
    for s in scales:
        sf_s = sf.scaled(s)
        completed = join_completion(sf_s.dictionary)
        train = SnapshotSet(pts, sf_s.evaluate(pts), "CT")
        model = fit_generator(train, completed, ridge)
        holdout = SnapshotSet(held, sf_s.evaluate(held), "CT")
        rep = residual(model, holdout)
        bounds, bar_B1, bar_B2 = _bounds(sf_s, held, clip, delta, s)
        if check_bounds:
            _check_per_function(sf_s, rep, bar_B1, bar_B2)
        reports.append(
            replace(
                bounds,
                residual_max=float(np.abs(rep.matrix).max()),
                residual_mean=float(np.abs(rep.matrix).max(axis=1).mean()),
            )
        )
    return reports


def _default_holdout(pts: np.ndarray) -> np.ndarray:
    """Shift each dimension by half its smallest positive grid spacing."""
    shift = np.empty(pts.shape[1])
    for i in range(pts.shape[1]):
        coords = np.unique(pts[:, i])
        if coords.size < 2:
            raise ValueError(
                f"cannot infer a cell size along dimension {i}; "
                "supply holdout_grid explicitly"
            )
        shift[i] = np.diff(coords).min() / 2.0
    return pts + shift


def _check_per_function(sf_s, rep, bar_B1, bar_B2):
    """Residual column of each field logistic vs its own bound pair."""
    m, n = sf_s.dictionary.m, sf_s.dictionary.n_logistic
    col = np.abs(rep.matrix[:, 1 + m : 1 + m + n]).max(axis=0)
    limit = bar_B1 + bar_B2
    bad = np.flatnonzero(col > limit)
    if bad.size:
        l = bad[0]
        raise ClosureBoundError(
            f"logistic {l}: fitted residual {col[l]:.6g} exceeds its "
            f"closure bound {limit[l]:.6g}"
        )
