"""State-inclusive logistic lifting (SILL) dictionaries.

A SILL dictionary lifts an m-dimensional measurement vector y to
N = 1 + m + N_L coordinates: a constant, the measurements themselves, and
N_L conjunctive logistic functions (products of per-coordinate sigmoids,
each with its own center mu and steepness alpha).  A dictionary is its
(N_L, m) mu and alpha arrays; its ConjLogistic objects are built only on
first access.  This module evaluates, differentiates, orders, and
join-completes such dictionaries.

A dictionary lives in index space.  Coordinate i has only r_i <= N_L
distinct (mu_i, alpha_i) pairs; sorted lexicographically they form its
table, and the R = sum r_i columns of all coordinates form one flat table,
coordinate 0's first.  Each logistic is a row of m columns.  The join of
two logistics takes, per coordinate, the lexicographically larger pair, so
it is np.maximum on columns; _groups finds the distinct rows of the table
and of the joins.  Evaluation is one kernel: one stable_sigmoid call over
the (..., R) table at the points, then a gather of each logistic's columns
and a product over coordinates.  A ConjLogistic is the one-row case, whose
table is its own m pairs.  Every gather is C-contiguous (np.take), so a
later reduction over its last axis runs in the same order as over a
freshly computed array, and values match a per-factor evaluation bit for
bit.

All operations are pure functions of their arguments.  Array arguments
broadcast over leading axes, so a (P, m) batch of points evaluates in one
call with deterministic ordering.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConjLogistic",
    "SillDictionary",
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


def stable_sigmoid(z, out=None):
    """1 / (1 + exp(-z)) for any z, saturating instead of failing.

    The formula keeps full relative accuracy in both tails: for z far
    below 0 the result is 1 / exp(-z) to within a couple of ulp, not a
    difference of nearly equal numbers.  Where exp(-z) overflows (z below
    about -709.78) the result is exactly 0.0, and for large positive z
    exactly 1.0; the overflow is expected, so it raises no warning.  NaN
    passes through.  A 0-d input returns a Python float.

    out, a float array of z's shape that may be z itself, receives the
    result; each step runs in place there, with the same operations in
    the same order, so the bits do not depend on it.
    """
    z = np.asarray(z, dtype=float)
    if out is None:
        out = np.empty_like(z)
    np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return float(out) if out.ndim == 0 else out


def _frozen(x) -> np.ndarray:
    """A read-only float copy of x; an array passed in stays writable."""
    out = np.array(x, dtype=float)
    out.setflags(write=False)
    return out


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
        mu, alpha = (np.atleast_1d(_frozen(x)) for x in (self.mu, self.alpha))
        if mu.ndim != 1 or alpha.ndim != 1:
            raise ValueError("mu and alpha must be 1-D vectors")
        if mu.shape != alpha.shape:
            raise ValueError(f"mu has length {mu.size}, alpha has length {alpha.size}")
        if mu.size < 1:
            raise ValueError("conjunctive logistic needs at least one coordinate")
        if not (np.isfinite(mu).all() and np.isfinite(alpha).all()):
            raise ValueError("mu and alpha must be finite")
        if not (alpha > 0).all():
            raise ValueError("all steepness components must be strictly positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)

    @property
    def m(self) -> int:
        return self.mu.size

    # the one-row table: coordinate i's only pair is column i
    table_mu = property(lambda self: self.mu)
    table_alpha = property(lambda self: self.alpha)
    table_coord = columns = property(lambda self: np.arange(self.m))

    def scaled(self, s: float) -> "ConjLogistic":
        """Same centers, all steepnesses multiplied by s > 0."""
        return ConjLogistic(self.mu, s * self.alpha)

    def __eq__(self, other):
        if not isinstance(other, ConjLogistic):
            return NotImplemented
        return np.array_equal(self.mu, other.mu) and np.array_equal(
            self.alpha, other.alpha
        )

    def __hash__(self):
        # hash(-0.0) == hash(0.0), as __eq__ compares the floats
        return hash((tuple(self.mu.tolist()), tuple(self.alpha.tolist())))


@dataclass(frozen=True, eq=False, init=False)
class SillDictionary:
    """Ordered dictionary [1, y, conjunctive logistics] over R^m.

    A dictionary is its parameter arrays: mu and alpha, the centers and
    steepnesses of N_L >= 1 logistics, read-only (N_L, m), one row each.
    The lifted coordinate layout is fixed: index 0 is the constant, 1..m
    are the measurements, m+1.. are the logistics in row order.  The
    public constructor stacks ConjLogistic objects of dimension m, and
    logistics, one ConjLogistic per row, is built on first access.

    The index space (see the module docstring), all read-only:
    table_mu, table_alpha and table_coord are the (R,) flat table of every
    coordinate's sorted distinct pairs, coordinate 0's first, and
    columns[l, i] is the column of logistic l's pair in coordinate i.
    Centers compare as floats, so -0.0 and 0.0 are one center, stored as
    its first occurrence.
    """

    m: int
    mu: np.ndarray
    alpha: np.ndarray
    table_mu: np.ndarray = field(repr=False)
    table_alpha: np.ndarray = field(repr=False)
    table_coord: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def __init__(self, m: int, logistics):
        if int(m) != m or m < 1:
            raise ValueError("measurement dimension m must be a positive integer")
        m, logistics = int(m), tuple(logistics)
        for k, f in enumerate(logistics):
            if not isinstance(f, ConjLogistic):
                raise TypeError(f"logistics[{k}] is not a ConjLogistic")
            if f.m != m:
                raise ValueError(f"logistics[{k}] has dimension {f.m}, dictionary has m={m}")
        self._index(np.array([f.mu for f in logistics]), np.array([f.alpha for f in logistics]))

    @classmethod
    def _of(cls, mu, alpha, where=None) -> "SillDictionary":
        """The dictionary of (N_L, m) arrays; errors name row l by where[name].format(l)."""
        return cls.__new__(cls)._index(mu, alpha, where)

    def _index(self, mu, alpha, where=None) -> "SillDictionary":
        """Check mu and alpha in one pass, then set self's arrays from them."""
        if len(mu) < 1:
            raise ValueError("a SILL dictionary needs at least one logistic")
        for name, ok, text in (
            ("mu", np.isfinite(mu), "mu and alpha must be finite"),
            ("alpha", np.isfinite(alpha), "mu and alpha must be finite"),
            ("alpha", alpha > 0, "all steepness components must be strictly positive"),
        ):
            if not ok.all():
                row = int(ok.all(axis=1).argmin())
                raise ValueError(text if where is None else f"{where[name].format(row)}: {text}")
        n, m = mu.shape
        # every (coordinate, mu, alpha) triple; each distinct one is a column
        coord, u, a = np.repeat(np.arange(m), n), mu.T.ravel(), alpha.T.ravel()
        order, opens = _groups(np.stack([coord, u, a], axis=1))
        columns = np.empty(n * m, dtype=np.intp)
        columns[order] = np.cumsum(opens) - 1
        first = order[opens]
        arrays = dict(
            mu=mu, alpha=alpha, table_mu=u[first], table_alpha=a[first],
            table_coord=coord[first], columns=np.ascontiguousarray(columns.reshape(m, n).T),
        )
        object.__setattr__(self, "m", m)
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @functools.cached_property
    def logistics(self) -> tuple:
        """One ConjLogistic per row of mu and alpha, built on first access."""
        return tuple(map(ConjLogistic, self.mu, self.alpha))

    @property
    def n_logistic(self) -> int:
        return len(self.mu)

    @property
    def size(self) -> int:
        """Total number of dictionary functions N = 1 + m + N_L."""
        return 1 + self.m + len(self.mu)

    def scaled(self, s: float) -> "SillDictionary":
        return SillDictionary._of(self.mu, s * self.alpha)

    def to_dict(self) -> dict:
        rows = zip(self.mu.tolist(), self.alpha.tolist())
        return {"m": self.m, "logistics": [{"mu": u, "alpha": a} for u, a in rows]}

    @classmethod
    def from_dict(cls, obj: dict) -> "SillDictionary":
        obj = _json_object(obj, "dictionary", ("m", "logistics"))
        m = _checked(obj["m"], int, "dictionary", "m", "measurement dimension", least=1)
        entries = _checked(obj["logistics"], list, "dictionary", "logistics", "logistic objects")
        return _dictionary_from(m, entries, "dictionary")


def _json_object(obj, where: str, keys) -> dict:
    """obj, checked to be a JSON object that holds every one of keys."""
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise ValueError(f"{where}: must be a JSON object with {', '.join(map(repr, keys))}")
    return obj


def _checked(val, kind, source: str, key: str, desc: str, least=None, most=None):
    """val as kind, where [kind] is a list of kind, to any depth.

    The one rule for numbers read from JSON (CLI configs and dictionary
    files): a float is any JSON number, an int an integer within
    [least, most], and neither is ever a bool or a string, alone or inside
    a list.  Errors name "<source> key '<key>'", entry i of a list as
    '<key>[i]'.
    """
    where = f"{source} key '{key}'"
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ValueError(f"{where} must be a list ({desc})")
        if kind[0] is float and all(type(v) is float for v in val):
            return list(val)  # what the checks below return for it, without a call per entry
        return [
            _checked(v, kind[0], source, f"{key}[{i}]", desc, least, most)
            for i, v in enumerate(val)
        ]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ValueError(f"{where} must be a number ({desc})")
        try:
            return float(val)
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"{where} must be a finite number ({desc})") from None
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"{where} must be an integer ({desc})")
        if least is not None and val < least:
            raise ValueError(f"{where} must be at least {least} ({desc})")
        if most is not None and val > most:
            raise ValueError(f"{where} must be at most {most} ({desc})")
        return val
    if not isinstance(val, kind):
        raise ValueError(f"{where} must be {kind.__name__} ({desc})")
    return val


def _params_from(obj, label: str, source: str):
    """[mu, alpha] of JSON object {"mu": [...], "alpha": [...]}, errors naming source's label."""
    if not isinstance(obj, dict) or "mu" not in obj or "alpha" not in obj:
        raise ValueError(f"{label} must be an object with 'mu' and 'alpha' arrays")
    return [
        _checked(obj[k], [float], source, f"{label}.{k}", "logistic parameters")
        for k in ("mu", "alpha")
    ]


def _dictionary_from(m: int, entries: list, source: str) -> SillDictionary:
    """The dictionary of m and its logistics' JSON objects; errors name keys in source."""
    rows = [_params_from(e, f"logistics[{k}]", source) for k, e in enumerate(entries)]
    for k, (mu, alpha) in enumerate(rows):
        if not len(mu) == len(alpha) == m:
            raise ValueError(f"{source} key 'logistics[{k}]' needs {m} entries in mu and alpha")
    mu, alpha = (np.array([r[i] for r in rows]) for i in (0, 1))
    where = {k: f"{source} key 'logistics[{{}}].{k}'" for k in ("mu", "alpha")}
    return SillDictionary._of(mu, alpha, where)


def _check_point(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim < 1 or y.shape[-1] != m:
        raise ValueError(f"expected points with last dimension {m}, got shape {y.shape}")
    return y


def _sigmoid_table(y, f):
    """stable_sigmoid of every table column of f at y, shape (..., R).

    f is a SillDictionary or a ConjLogistic; one call evaluates each
    distinct per-coordinate factor once.
    """
    y = _check_point(y, f.m)
    # an argument beyond the float range is one where sigma is exactly 0 or 1
    with np.errstate(over="ignore"):
        z = f.table_alpha * (y[..., f.table_coord] - f.table_mu)
    return stable_sigmoid(z)


def _gather(table, columns):
    """table[..., columns], C-contiguous, shape (..., *columns.shape)."""
    return np.take(table, columns, axis=-1)


def _product(table, columns):
    """Product over the last axis of _gather(table, columns).

    One coordinate at a time, left to right, the order in which np.prod
    reduces a short last axis, without gathering all m factors at once.
    """
    out = _gather(table, columns[..., 0])
    for i in range(1, columns.shape[-1]):
        out = out * _gather(table, columns[..., i])
    return out


def eval_conjunctive(y, f):
    """Product of scalar logistics at y; strictly inside (0, 1).

    y may be a single length-m vector or any (..., m) batch.  f may also
    be a SillDictionary: eval_conjunctive(y, d) has shape (..., N_L), one
    value per logistic.
    """
    out = _product(_sigmoid_table(y, f), f.columns)
    return float(out) if out.ndim == 0 else out


def conj_values(y, d: SillDictionary):
    """All conjunctive logistic values at y, shape (..., N_L)."""
    return eval_conjunctive(y, d)


def _lifted(first, y, rest):
    """[first, y, rest] along the last axis: the lift's coordinate layout."""
    return np.concatenate([np.full(y.shape[:-1] + (1,), first), y, rest], axis=-1)


def lift(y, d: SillDictionary):
    """Lift y to dictionary coordinates [1, y, logistic values].

    Component 0 is exactly 1, components 1..m copy y, the rest are the
    conjunctive logistics in dictionary order.  Shape (..., m) -> (..., N).
    """
    y = _check_point(y, d.m)
    return _lifted(1.0, y, conj_values(y, d))


def grad_conjunctive(y, f):
    """Gradient of a conjunctive logistic with respect to y.

    Component i is alpha_i * (1 - lambda_i(y_i)) * Lambda(y); saturates to
    zero far from the centers and is finite everywhere.  f may also be a
    SillDictionary: grad_conjunctive(y, d) has shape (..., N_L, m), one
    gradient row per logistic.
    """
    table = _sigmoid_table(y, f)
    return _gradient(table, f, _product(table, f.columns))


def _gradient(table, f, values):
    """grad_conjunctive from f's sigmoid table and its values Lambda there."""
    return f.alpha * (1.0 - _gather(table, f.columns)) * values[..., None]


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
    jac[1 + d.m :, :] = grad_conjunctive(y, d)
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


def check_total_order(d: SillDictionary) -> tuple:
    """Every logistic pair where neither function dominates the other.

    A tuple of 0-based (l, j) index pairs of ints, l < j, in row-major
    order; it is empty exactly when d is totally ordered.
    """
    # dom[a, b] is dominates(a, b) for all pairs at once
    dom = (d.mu[None] - d.mu[:, None] >= 0.0).all(-1)
    return tuple((int(a), int(b)) for a, b in np.argwhere(np.triu(~dom & ~dom.T, 1)))


def join_params(f: ConjLogistic, g: ConjLogistic) -> ConjLogistic:
    """Componentwise-max join of two conjunctive logistics.

    Per coordinate, the larger table column of the pair (the column join):
    the larger center with the steepness of whichever function supplied
    it, and on a center tie the larger steepness.
    """
    pair = SillDictionary(f.m, (f, g))
    cols = pair.columns.max(axis=0)
    return ConjLogistic(pair.table_mu[cols], pair.table_alpha[cols])


def join_completion(d: SillDictionary) -> SillDictionary:
    """Close the logistic set under pairwise join.

    Original functions keep their indices, repeated ones included; new
    joins are appended, deduplicated by exact (mu, alpha) equality.  Each
    pass joins, in row-major order, the pairs (a, b), a < b, whose b
    arrived in the previous pass (all pairs in the first), and appends the
    first occurrence of each join not yet a member.  The passes run on
    column rows: a coordinate's columns are contiguous and sorted, so a
    join is np.maximum, and _groups finds the new rows.  Every join draws
    its pairs from the originals' tables, so this terminates.
    """
    rows, fresh = d.columns, 0
    while fresh < len(rows):
        n = len(rows)
        a, b = np.triu_indices(n, 1)
        a, b = a[b >= fresh], b[b >= fresh]
        joined = np.maximum(rows[a], rows[b])
        order, opens = _groups(np.vstack([rows, joined]))
        first = order[opens]
        rows = np.vstack([rows, joined[np.sort(first[first >= n]) - n]])
        fresh = n
    new = rows[d.n_logistic :]
    mu, alpha = np.vstack([d.mu, d.table_mu[new]]), np.vstack([d.alpha, d.table_alpha[new]])
    return SillDictionary._of(mu, alpha)


def _groups(keys):
    """Stable lexicographic order of keys' rows, and where each distinct row starts.

    Column 0 is primary and floats compare as floats (-0.0 == 0.0), so
    order[opens] is each distinct row's first occurrence.
    """
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    return order, np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])


def _write_atomic(pairs) -> None:
    """Write each (path, text) pair through a temp file and os.replace.

    Every temp file is written before the first rename, and the renames
    run in order: a failed write replaces no file, and a failed rename
    keeps the files renamed before it.  Readers see an old file or a
    complete new one, never a partial write; on failure the temp files
    not yet renamed are removed.
    """
    pending = []  # (temp, path) written and not yet renamed
    try:
        for path, text in pairs:
            with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
                pending.append((fh.name, path))
                fh.write(text)
        while pending:
            os.replace(*pending[0])
            del pending[0]
    except BaseException:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _json_text(obj) -> str:
    """The JSON artifact format: sorted keys, two-space indent, final newline, no NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: str, rows) -> str:
    """The CSV artifact format: header line, then str() of each field."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def save_dictionary(d: SillDictionary, path) -> None:
    _write_atomic([(path, _json_text(d.to_dict()))])


def load_dictionary(path) -> SillDictionary:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return SillDictionary.from_dict(_json_object(obj, path, ("m", "logistics")))
