"""State-inclusive logistic lifting (SILL) dictionaries.

A SILL dictionary lifts an m-dimensional measurement vector y to
N = 1 + m + N_L coordinates: a constant, the measurements themselves, and
N_L conjunctive logistic functions (products of per-coordinate sigmoids,
each with its own center mu and steepness alpha).  This module evaluates,
differentiates, orders, and join-completes such dictionaries.

All operations are pure functions of their arguments.  Array arguments
broadcast over leading axes, so a (P, m) batch of points evaluates in one
call with deterministic ordering.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConjLogistic",
    "SillDictionary",
    "OrderCheckResult",
    "stable_sigmoid",
    "eval_conjunctive",
    "conj_values",
    "lift",
    "grad_conjunctive",
    "lift_jacobian",
    "dominates",
    "check_total_order",
    "join_params",
    "join_completion",
    "save_dictionary",
    "load_dictionary",
]


def stable_sigmoid(z):
    """1 / (1 + exp(-z)) for any z, saturating instead of failing.

    The formula keeps full relative accuracy in both tails: for z far
    below 0 the result is 1 / exp(-z) to within a couple of ulp, not a
    difference of nearly equal numbers.  Where exp(-z) overflows (z below
    about -709.78) the result is exactly 0.0, and for large positive z
    exactly 1.0; the overflow is expected, so it raises no warning.  NaN
    passes through.  A 0-d input returns a Python float.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-z))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class ConjLogistic:
    """A conjunctive logistic: the product of m scalar logistics.

    mu and alpha are length-m vectors; the function is near 1 on the
    orthant-like region above all centers and near 0 elsewhere.  Steepness
    must be strictly positive in every coordinate.
    """

    mu: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if mu.ndim != 1 or alpha.ndim != 1:
            raise ValueError("mu and alpha must be 1-D vectors")
        if mu.shape != alpha.shape:
            raise ValueError(
                f"mu has length {mu.size}, alpha has length {alpha.size}"
            )
        if mu.size < 1:
            raise ValueError("conjunctive logistic needs at least one coordinate")
        if not (np.isfinite(mu).all() and np.isfinite(alpha).all()):
            raise ValueError("mu and alpha must be finite")
        if not (alpha > 0).all():
            raise ValueError("all steepness components must be strictly positive")
        mu.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)

    @property
    def m(self) -> int:
        return self.mu.size

    def scaled(self, s: float) -> "ConjLogistic":
        """Same centers, all steepnesses multiplied by s > 0."""
        return ConjLogistic(self.mu, s * self.alpha)

    def key(self) -> tuple:
        return (tuple(self.mu.tolist()), tuple(self.alpha.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ConjLogistic):
            return NotImplemented
        return np.array_equal(self.mu, other.mu) and np.array_equal(
            self.alpha, other.alpha
        )

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True, eq=False)
class SillDictionary:
    """Ordered dictionary [1, y, conjunctive logistics] over R^m.

    Every logistic must share the dictionary's measurement dimension m and
    there must be at least one (the dictionary is a genuine lifting,
    N > m).  The lifted coordinate layout is fixed: index 0 is the
    constant, 1..m are the measurements, m+1.. are the logistics in list
    order.  mu and alpha are the logistics' centers and steepnesses
    stacked read-only into (N_L, m) arrays, so the dictionary can stand in
    for a ConjLogistic in eval_conjunctive and grad_conjunctive.
    """

    m: int
    logistics: tuple
    mu: np.ndarray = field(init=False, repr=False)
    alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("measurement dimension m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        logistics = tuple(self.logistics)
        if len(logistics) < 1:
            raise ValueError("a SILL dictionary needs at least one logistic")
        for k, f in enumerate(logistics):
            if not isinstance(f, ConjLogistic):
                raise TypeError(f"logistics[{k}] is not a ConjLogistic")
            if f.m != self.m:
                raise ValueError(
                    f"logistics[{k}] has dimension {f.m}, dictionary has m={self.m}"
                )
        object.__setattr__(self, "logistics", logistics)
        for name in ("mu", "alpha"):
            stacked = np.stack([getattr(f, name) for f in logistics])
            stacked.setflags(write=False)
            object.__setattr__(self, name, stacked)

    @property
    def n_logistic(self) -> int:
        return len(self.logistics)

    @property
    def size(self) -> int:
        """Total number of dictionary functions N = 1 + m + N_L."""
        return 1 + self.m + len(self.logistics)

    def scaled(self, s: float) -> "SillDictionary":
        return SillDictionary(self.m, tuple(f.scaled(s) for f in self.logistics))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "logistics": [
                {"mu": f.mu.tolist(), "alpha": f.alpha.tolist()}
                for f in self.logistics
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SillDictionary":
        try:
            m = obj["m"]
            entries = obj["logistics"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"dictionary object missing field: {exc}") from exc
        logistics = [ConjLogistic(e["mu"], e["alpha"]) for e in entries]
        return cls(m, tuple(logistics))


@dataclass(frozen=True)
class OrderCheckResult:
    """Outcome of the pairwise dominance scan over a dictionary.

    incomparable_pairs holds 0-based (l, j) logistic index pairs, l < j,
    where neither function dominates the other.
    """

    totally_ordered: bool
    incomparable_pairs: tuple

    def __post_init__(self):
        if self.totally_ordered != (len(self.incomparable_pairs) == 0):
            raise ValueError("totally_ordered must match incomparable_pairs")


def _check_point(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] != m:
        raise ValueError(f"expected points with last dimension {m}, got shape {y.shape}")
    return y


def _coordinate_sigmoids(y, mu, alpha):
    """Per-coordinate factors lambda_i(y_i), broadcast like eval_conjunctive."""
    return stable_sigmoid(alpha * (y - mu))


def eval_conjunctive(y, f: ConjLogistic):
    """Product of scalar logistics at y; strictly inside (0, 1).

    y may be a single length-m vector or any (..., m) batch.  f may also
    be a SillDictionary, whose (N_L, m) parameter arrays broadcast against
    y: eval_conjunctive(y[..., None, :], d) has shape (..., N_L).
    """
    y = _check_point(y, f.m)
    out = np.prod(_coordinate_sigmoids(y, f.mu, f.alpha), axis=-1)
    return float(out) if out.ndim == 0 else out


def conj_values(y, d: SillDictionary):
    """All conjunctive logistic values at y, shape (..., N_L)."""
    y = _check_point(y, d.m)
    return eval_conjunctive(y[..., None, :], d)


def lift(y, d: SillDictionary):
    """Lift y to dictionary coordinates [1, y, logistic values].

    Component 0 is exactly 1, components 1..m copy y, the rest are the
    conjunctive logistics in dictionary order.  Shape (..., m) -> (..., N).
    """
    y = _check_point(y, d.m)
    out = np.empty(y.shape[:-1] + (d.size,))
    out[..., 0] = 1.0
    out[..., 1 : 1 + d.m] = y
    out[..., 1 + d.m :] = conj_values(y, d)
    return out


def grad_conjunctive(y, f: ConjLogistic):
    """Gradient of a conjunctive logistic with respect to y.

    Component i is alpha_i * (1 - lambda_i(y_i)) * Lambda(y); saturates to
    zero far from the centers and is finite everywhere.  f may also be a
    SillDictionary: grad_conjunctive(y[..., None, :], d) has shape
    (..., N_L, m), one gradient row per logistic.
    """
    y = _check_point(y, f.m)
    lam = _coordinate_sigmoids(y, f.mu, f.alpha)
    full = np.prod(lam, axis=-1, keepdims=True)
    return f.alpha * (1.0 - lam) * full


def lift_jacobian(y, d: SillDictionary):
    """Jacobian of the lift at a single point, shape (N, m).

    Row 0 is zero (the constant), rows 1..m are the identity, and each
    logistic contributes its gradient row.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size != d.m:
        raise ValueError(f"expected a length-{d.m} point, got shape {y.shape}")
    jac = np.zeros((d.size, d.m))
    jac[1 : 1 + d.m, :] = np.eye(d.m)
    jac[1 + d.m :, :] = grad_conjunctive(y[None, :], d)
    return jac


def dominates(f: ConjLogistic, g: ConjLogistic) -> bool:
    """True when g.mu - f.mu lies in the closed positive orthant.

    Ties count as dominating, so the relation is reflexive; a function
    with smaller centers dominates pointwise (its value is the larger
    logistic everywhere for matched steepness).
    """
    if f.m != g.m:
        raise ValueError(f"dimension mismatch: {f.m} vs {g.m}")
    return bool(np.all(g.mu - f.mu >= 0.0))


def check_total_order(d: SillDictionary) -> OrderCheckResult:
    """List every logistic pair where neither function dominates."""
    # dom[a, b] is dominates(a, b) for all pairs at once
    dom = (d.mu[None] - d.mu[:, None] >= 0.0).all(-1)
    pairs = np.argwhere(np.triu(~dom & ~dom.T, 1))
    bad = tuple((int(a), int(b)) for a, b in pairs)
    return OrderCheckResult(totally_ordered=not bad, incomparable_pairs=bad)


def _join(mu_f, alpha_f, mu_g, alpha_g):
    """The join rule on stacked (..., m) parameter arrays, broadcast."""
    tie = np.maximum(alpha_f, alpha_g)
    alpha = np.where(mu_g > mu_f, alpha_g, np.where(mu_f > mu_g, alpha_f, tie))
    return np.maximum(mu_f, mu_g), alpha


def join_params(f: ConjLogistic, g: ConjLogistic) -> ConjLogistic:
    """Componentwise-max join of two conjunctive logistics.

    Each center is the larger of the two, paired with the steepness of
    whichever function supplied it.  On a center tie the larger steepness
    wins.
    """
    if f.m != g.m:
        raise ValueError(f"dimension mismatch: {f.m} vs {g.m}")
    return ConjLogistic(*_join(f.mu, f.alpha, g.mu, g.alpha))


def join_completion(d: SillDictionary) -> SillDictionary:
    """Close the logistic set under pairwise join.

    Original functions keep their indices, repeated ones included; new
    joins are appended, deduplicated by exact (mu, alpha) equality.  Each
    pass joins, in row-major order, the pairs (a, b), a < b, whose b
    arrived in the previous pass (all pairs in the first), and appends the
    first occurrence of each join not yet a member.  The closure of a
    finite set under componentwise max is finite (every join draws its
    coordinates from the original center grid), so this terminates.
    """
    m, n0 = d.m, d.n_logistic
    rows = np.hstack([d.mu, d.alpha])
    fresh = 0
    while fresh < len(rows):
        n = len(rows)
        a, b = np.triu_indices(n, 1)
        a, b = a[b >= fresh], b[b >= fresh]
        joined = np.hstack(_join(rows[a, :m], rows[a, m:], rows[b, :m], rows[b, m:]))
        _, first = np.unique(np.vstack([rows, joined]), axis=0, return_index=True)
        rows = np.vstack([rows, joined[np.sort(first[first >= n]) - n]])
        fresh = n
    new = map(ConjLogistic, rows[n0:, :m], rows[n0:, m:])
    return SillDictionary(m, d.logistics + tuple(new))


def _write_atomic(path, text: str) -> None:
    """Write text to path through a temp file and os.replace.

    Readers see the old file or the complete new one, never a partial
    write; on failure the temp file is removed and the old file is kept.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path, obj) -> None:
    """The JSON artifact format: sorted keys, two-space indent, final newline."""
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header: str, rows) -> None:
    """The CSV artifact format: header line, then str() of each field."""
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    _write_atomic(path, "\n".join(lines) + "\n")


def save_dictionary(d: SillDictionary, path) -> None:
    _write_json(path, d.to_dict())


def load_dictionary(path) -> SillDictionary:
    with open(path, "r", encoding="utf-8") as fh:
        return SillDictionary.from_dict(json.load(fh))
