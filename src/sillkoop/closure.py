"""Closure analysis for SILL dictionaries.

The Lie derivative of a conjunctive logistic along a field spanned by the
dictionary is a weighted sum of pairwise products of logistics.  Each
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

The forms of all field logistics come from one array pass, lie_forms,
as the named (..., N_L) fields of a LieForms.

Maxima over the measurement region are taken over a user-supplied finite
grid that keeps a positive distance delta from the center hyperplanes
(where the product approximation cannot improve), so all reported bounds
are grid surrogates of the continuum quantities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dictionary import (
    ConjLogistic,
    SillDictionary,
    _check_point,
    _frozen,
    _gather,
    _product,
    _sigmoid_table,
    conj_values,
    dominates,
    join_completion,
    stable_sigmoid,  # noqa: F401  (still importable as closure.stable_sigmoid)
)
from .errors import ClosureBoundError
from .regression import _ct_system, solve_koopman_ls

__all__ = [
    "SpannedField",
    "ClosureReport",
    "product_approx_error",
    "hyperplane_distance",
    "product_approx_decay",
    "LieForms",
    "lie_forms",
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
        W = _frozen(self.W)
        expected = (self.dictionary.m, self.dictionary.n_logistic)
        if W.shape != expected:
            raise ValueError(f"W must have shape {expected}, got {W.shape}")
        # |field_i| <= sum_j |W_ij|, so finite row sums keep evaluate finite
        with np.errstate(over="ignore"):
            bound = np.abs(W).sum(axis=1)
        if not np.isfinite(bound).all():
            raise ValueError("W has a weight or an absolute row sum that is not finite")
        object.__setattr__(self, "W", W)

    def evaluate(self, y):
        """Field value W . Lambda(y); shape (..., m)."""
        return conj_values(y, self.dictionary) @ self.W.T


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
    residual_max: float
    residual_mean: float
    alpha_scale: float
    m: int

    def __post_init__(self):
        for name in ("bar_B1", "bar_B2", "tilde_B1", "tilde_B2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def B(self) -> float:
        return min(self.bar_B1 + self.bar_B2, self.tilde_B1 + self.tilde_B2)

    def to_dict(self) -> dict:
        return {**asdict(self), "B": self.B}


def product_approx_error(f: ConjLogistic, g: ConjLogistic, y):
    """Lambda_f(y) Lambda_g(y) - Lambda_join(f,g)(y); lies in (-1, 1).

    One sigmoid table of the pair gives all three: the join's columns are
    the pair's column max, as in lie_forms.
    """
    pair = SillDictionary(f.m, (f, g))
    table, (cf, cg) = _sigmoid_table(y, pair), pair.columns
    out = _product(table, cf) * _product(table, cg) - _product(table, np.maximum(cf, cg))
    return float(out) if out.ndim == 0 else out


def hyperplane_distance(y, d: SillDictionary):
    """Distance from y to the nearest center hyperplane y_i = mu_ji.

    Zero exactly when some coordinate of y matches some logistic center in
    that coordinate; this is the measure-zero set where the product
    approximation error cannot be reduced by steepening.
    """
    y = _check_point(y, d.m)
    # each distinct center once: the table column's coordinate of y
    out = np.abs(y[..., d.table_coord] - d.table_mu).min(axis=-1)
    return float(out) if out.ndim == 0 else out


def _check_steepness(alpha, scales):
    """Refuse a largest steepness times largest scale past the float range."""
    # as Python floats the product overflows to inf without a warning
    top, s = float(np.max(alpha)), float(np.max(scales))
    if not math.isfinite(top * s):
        raise ValueError(f"steepness {top:g} times scale {s:g} is beyond the float range")


def _as_grid(grid, m: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"grid must be a list of length-{m} points, got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("grid is empty")
    return pts


def product_approx_decay(f: ConjLogistic, g: ConjLogistic, grid, scales):
    """Sweep a steepness multiplier and fit the decay of the product error.

    For each scale s, both functions' steepnesses are multiplied by s and
    the max |product_approx_error| over the grid is recorded; the slope of
    log(max error) against s is fitted by ordinary least squares.  Returns
    (max_errors, slope, intercept), max_errors an array with one entry per
    scale.  A negative slope is the expected exponential decay.

    The pair must be comparable under the dominance order (the decay
    guarantee assumes an ordered pair), and no grid point may sit on a
    center hyperplane of either function.
    """
    if not (dominates(f, g) or dominates(g, f)):
        raise ValueError(
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
    _check_steepness(np.concatenate([f.alpha, g.alpha]), scales)
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
    return max_errors, float(slope), float(intercept)


@dataclass(frozen=True)
class LieForms:
    """Every Lie-derivative form of every field logistic, each (..., N_L).

    Column l belongs to logistic l, with lambda_li(y_i) its i-th
    coordinate factor, Lambda the conjunctive logistics and Lambda_star_lj
    the join of logistics l and j:

    * exact: sum_{i,j} alpha_li W_ij (1 - lambda_li(y_i)) Lambda_l(y)
      Lambda_j(y), the d/dt of logistic l along the spanned field;
      identical to grad Lambda_l . F(y) by the chain rule.
    * intermediate: the exact sum with each product Lambda_l Lambda_j
      replaced by its join Lambda_star_lj.
    * linear: sum_{i,j} alpha_li W_ij Lambda_star_lj(y), linear in the
      completed dictionary.  This is what a single row of a Koopman
      matrix can represent once the joins are dictionary members, so it
      is the model-facing approximation.
    * linearization: sum_{i,j} alpha_li W_ij lambda_li(y_i)
      Lambda_star_lj(y); exactly the gap linear - intermediate, since the
      (1 - lambda) and lambda weighted sums add to the unweighted one.
    * reference: sum_{i,j} alpha_li W_ij Lambda_l(y) Lambda_j(y).

    reference - exact is the bilinear term that tilde_B1 bounds in
    expectation.  Each sum is computed on its own, none as a difference
    of the others.
    """

    exact: np.ndarray
    intermediate: np.ndarray
    linear: np.ndarray
    linearization: np.ndarray
    reference: np.ndarray


def lie_forms(sf: SpannedField, y) -> LieForms:
    """The LieForms of all field logistics at y, shape (m,) or (..., m).

    One sigmoid table at y gives the per-coordinate factors, the
    dictionary and the N_L^2 pairwise joins: a join's columns are the max
    of the pair's, its value their product one coordinate at a time, so no
    (..., N_L, N_L, m) array is built.  Every sum is a matmul over i, then
    a sum over the last axis j of a C-contiguous array, so
    lie_forms(sf, Y)[p] is lie_forms(sf, Y[p]) bit for bit.
    closure_experiment reads the joins off its completed values instead.
    """
    table, cols = _sigmoid_table(y, sf.dictionary), sf.dictionary.columns  # (..., R)
    joins = _product(table, np.maximum(cols[:, None], cols))  # (..., N_L, N_L), all pairs
    return _lie_forms(sf, table, _product(table, cols), joins)


def _lie_forms(sf: SpannedField, table, lam_all, lam_star) -> LieForms:
    """lie_forms from sf's table, values and joins, each C-contiguous."""
    d, W = sf.dictionary, sf.W
    lam = _gather(table, d.columns)  # (..., N_L, m)
    # (..., N_L, N_L): off[l, j] = sum_i alpha_li (1 - lambda_li) W_ij
    off, on = (d.alpha * (1.0 - lam)) @ W, (d.alpha * lam) @ W
    coeff = d.alpha @ W  # coeff[l, j] = sum_i alpha_li W_ij
    pair = lam_all[..., None, :]  # Lambda_j for every l
    return LieForms(
        exact=(off * pair).sum(-1) * lam_all,
        intermediate=(off * lam_star).sum(-1),
        linear=(coeff * lam_star).sum(-1),
        linearization=(on * lam_star).sum(-1),
        reference=(coeff * pair).sum(-1) * lam_all,
    )


def _check_clearance(pts, d: SillDictionary, delta: float):
    """Every grid point at least delta > 0 from every center hyperplane of d."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    dist = hyperplane_distance(pts, d)
    if np.any(dist < delta):
        bad = int(np.argmin(dist))
        raise ValueError(
            f"grid point {bad} is within {delta} of a center hyperplane "
            f"(distance {dist.min():.3g})"
        )


def _bounds(sf: SpannedField, forms: LieForms, residuals, alpha_scale) -> ClosureReport:
    """The ClosureReport over the forms' grid of the logistic worst fitted by its linear form.

    bar_B1 and tilde_B2 are grid maxima of the absolute approximation-error
    sums; bar_B2 and tilde_B1 are the expectation-based per-term bounds with
    nu_ij = |alpha_li W_ij|.  The residual statistics are those of the fitted
    model's (P, N) residual matrix on the grid.  A field logistic whose residual
    column exceeds its bar_B1 + bar_B2 raises ClosureBoundError, which names
    the logistic with the largest ratio of residual to that limit.
    """
    d = sf.dictionary
    # grid maxima of |sum|: the signed maxima would not dominate the
    # absolute gaps they are meant to bound
    bar_B1 = np.abs(forms.exact - forms.intermediate).max(axis=0)
    tilde_B2 = np.abs(forms.reference - forms.linear).max(axis=0)
    nu_sum = np.abs(d.alpha[:, :, None] * sf.W).sum(axis=(1, 2))
    bar_B2 = nu_sum / 2.0 ** (d.m + 1)
    tilde_B1 = nu_sum / 2.0 ** (2 * d.m + 1)
    worst = int(np.argmax(np.abs(forms.exact - forms.linear).max(axis=0)))
    res = np.abs(residuals)
    col = res[:, 1 + d.m : 1 + d.m + d.n_logistic].max(axis=0)
    limit = bar_B1 + bar_B2
    bad = np.flatnonzero(col > limit)
    if bad.size:
        # a limit of 0 gives ratio inf
        with np.errstate(divide="ignore", over="ignore"):
            l = bad[np.argmax(col[bad] / limit[bad])]
        raise ClosureBoundError(
            f"logistic {l}: fitted residual {col[l]:.6g} exceeds its "
            f"closure bound {limit[l]:.6g}"
        )
    return ClosureReport(
        bar_B1=float(bar_B1[worst]),
        bar_B2=float(bar_B2[worst]),
        tilde_B1=float(tilde_B1[worst]),
        tilde_B2=float(tilde_B2[worst]),
        residual_max=float(res.max()),
        residual_mean=float(res.max(axis=1).mean()),
        alpha_scale=float(alpha_scale),
        m=d.m,
    )


MAX_GRID_ROWS = 1_000_000


def lattice_grid(box, points_per_dim: int) -> np.ndarray:
    """Uniform lattice over a box [(lo, hi), ...], shape (p^m, m).

    p^m may not exceed MAX_GRID_ROWS (10^6); the count is checked before
    any row is allocated.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("box must be a list of (lo, hi) pairs")
    p = points_per_dim
    # an integral float counts, as m = 2.0 does for SillDictionary; inf % 1 is nan
    if isinstance(p, bool) or not isinstance(p, (int, float, np.integer)) or p % 1:
        raise ValueError(f"points_per_dim must be a whole number, got {p!r}")
    p = int(p)
    if p < 2:
        raise ValueError("need at least two points per dimension")
    if not np.all(box[:, 1] > box[:, 0]):
        raise ValueError("box bounds must satisfy lo < hi")
    # decided without forming p^m in full: p >= 2 and 2^bit_length is above
    # the limit, so no more factors than bit_length are needed
    m = box.shape[0]
    if p > MAX_GRID_ROWS or p ** min(m, MAX_GRID_ROWS.bit_length()) > MAX_GRID_ROWS:
        raise ValueError(
            f"a lattice of points_per_dim^{m} points is above the limit of {MAX_GRID_ROWS}"
        )
    axes = [np.linspace(lo, hi, p) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def half_cell_shift(box, points_per_dim: int) -> np.ndarray:
    """The same lattice shifted by half a cell in every dimension."""
    grid = lattice_grid(box, points_per_dim)  # checks the box and the count
    box = np.atleast_2d(np.asarray(box, dtype=float))
    return grid + (box[:, 1] - box[:, 0]) / (points_per_dim - 1) / 2.0


def closure_experiment(
    sf: SpannedField,
    grid,
    alpha_scales,
    *,
    holdout_grid,
    ridge: float = 0.0,
    delta: float,
):
    """Fit a generator to the spanned field at each steepness scale.

    Per scale: the dictionary is steepness-scaled and join-completed, a CT
    generator is fitted to exact snapshots of the scaled field on the
    training grid, and its residual is measured on holdout_grid (for a
    lattice, half_cell_shift gives the half-cell holdout), where the
    analytic bounds are evaluated and paired with it in one report.  Each
    grid is evaluated from one sigmoid table of the completed dictionary
    (the field's own: every join is drawn from it), held-out joins read off
    its values by index, bit for bit as fit_generator, residual, lie_forms.

    Each field logistic's max residual on the held-out grid must stay at
    or below its bar_B1 + bar_B2 bound, or ClosureBoundError is raised.
    Scaling keeps the centers, so the holdout grid's delta clearance is
    checked once, before the first fit.
    """
    pts = _as_grid(grid, sf.dictionary.m)
    held = _as_grid(holdout_grid, sf.dictionary.m)
    scales = np.asarray(alpha_scales, dtype=float)
    if scales.size < 1:
        raise ValueError("alpha_scales must not be empty")
    if scales.ndim != 1 or not np.all(scales > 0):
        raise ValueError("alpha_scales must be positive")
    _check_steepness(sf.dictionary.alpha, scales)
    _check_clearance(held, sf.dictionary, delta)
    return [
        _scale_report(SpannedField(sf.dictionary.scaled(s), sf.W), s, pts, held, ridge)
        for s in scales
    ]


def _scale_report(sf: SpannedField, s, pts, held, ridge) -> ClosureReport:
    """closure_experiment's report at scale s, sf the scaled field."""
    completed = join_completion(sf.dictionary)
    K = solve_koopman_ls(*(a.T for a in _batch(pts, completed, sf)[0]), ridge)  # G^T, A^T
    (G, A), table, values, lam = _batch(held, completed, sf)
    R = A - G @ K.T
    joins = np.take(values, _join_index(completed, sf.dictionary.n_logistic), axis=-1)
    del G, A, values  # the forms need only the table, lam and the joins
    # alpha times W may overflow on a finite field; the report that holds
    # the inf or nan is refused when it is written
    with np.errstate(over="ignore", invalid="ignore"):
        return _bounds(sf, _lie_forms(sf, table, lam, joins), R, s)


def _batch(pts, completed: SillDictionary, sf: SpannedField):
    """sf's CT pair at pts, completed's table and values there, and the field's N_L of them."""
    table = _sigmoid_table(pts, completed)
    values = _product(table, completed.columns)
    lam = np.ascontiguousarray(values[:, : sf.dictionary.n_logistic])
    return _ct_system(pts, lam @ sf.W.T, completed, table, values), table, values, lam


def _join_index(completed: SillDictionary, n: int) -> np.ndarray:
    """(n, n) places in completed of the joins of its first n logistics."""
    place = {row: k for k, row in enumerate(map(tuple, completed.columns.tolist()))}
    joins = np.maximum(completed.columns[:n, None], completed.columns[:n]).tolist()
    return np.array([[place[tuple(r)] for r in row] for row in joins], dtype=np.intp)
