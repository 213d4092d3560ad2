"""Sampling statistics of randomly parameterized logistic functions.

With center, steepness, and measurement drawn iid from the symmetric
uniform U(-a, a), the logistic argument alpha * (y - mu) is the product
X(Y - Z) of three such variables.  Y - Z has a triangular density; the
product then has a closed-form density with an integrable log singularity
at zero.  Expectations of the logistic under that density have no closed
form, so they are computed by singularity-aware quadrature and
cross-checked by Monte Carlo.  The quadrature carries the analytic mass of
a small interval around zero and integrates each half of the rest in log
coordinates with one fixed composite Gauss-Legendre rule, _PANELS panels
of 50 nodes; a check rule with twice the panels runs alongside, and their
difference is a deterministic error estimate (MomentReport.quad_error)
that must stay below 1e-13 + 1e-12 |I|.  The radius a is confined to
[MIN_RADIUS, MAX_RADIUS], where every intermediate of both routes is
finite: the sliver 1e-8 a^2 and its square, and the squared error term
~a^4 of the Monte Carlo sums.

Every Monte Carlo statistic is one call of a single estimator: in blocks
of at most 2^14 samples it starts from a first factor, multiplies in
random logistics sigma(X(Y - Z)) one at a time and reads the product
after the factor counts it reports.  Draws come from numpy's PCG64
generator seeded explicitly, so every estimate is a pure function of its
parameters and seed.  Per block of b samples, each random logistic takes
the next 3b doubles of the stream as rows X, Y, Z of b values of
U(-a, a) each, one row after another.  Per estimator, seed and draws per
block:

* expected_logistic: seed ``seed``; one random logistic.
* mc_conjunctive_table(m_values): seed ``seed``; max(m) random logistics
  (the first factor is 1 and draws nothing), row m read after m of them.
* expected_error_rates(m_values): seed ``seed``; the next 4b doubles as
  rows alpha, w, y, z for |alpha w| sigma(alpha (y - z)), then 2 max(m)
  random logistics; row m reads the linearization term after m of them
  and the bilinear term after 2m.

The rows of a table share one sample path, so comparisons across m are
paired, and the linear term at m = 2k is the bilinear term at m = k bit
for bit.

An estimate allocates its draw rows and running product once and
rewrites them in place block after block: the draws as rng.random(out=)
scaled to U(-a, a), the same bits as rng.uniform(-a, a), and the logistic
with stable_sigmoid(out=).  The generator fill and these ufunc loops
release the GIL, so estimates on different threads overlap.  The ``stats``
command submits expected_error_rates, the largest, to a one-thread
concurrent.futures pool while the calling thread runs the moment sweep
and then the conjunctive table.
No number can depend on that scheduling: each estimate owns its seeded
generator and walks its blocks in a fixed order, and shares no buffer.

The module writes no file.  It returns MomentReport and ErrorRateRow
values, which the ``stats`` command lays out as CSV rows, one column per
field in field order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import stable_sigmoid
from .errors import QuadratureError

__all__ = [
    "MomentReport",
    "ErrorRateRow",
    "product_pdf",
    "product_pdf_normalization",
    "expected_logistic",
    "mc_conjunctive_table",
    "expected_error_rates",
    "moment_sweep",
]

# samples per block: its draws and temporaries stay in cache
_BLOCK = 1 << 14
MAX_SAMPLES = 10**9
# samples x factors per sample in one estimate: minutes of work, not hours
MAX_SAMPLE_FACTORS = 10**10
# 2^-(2m+1) is already 0.0 from m = 537 on
MAX_M = 1000

# one Gauss-Legendre panel on [-1, 1]; the coarse rule of each half-support
# uses _PANELS of them, and the check rule twice as many
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(50)
_PANELS = 4
# a^4 overflows above about 1e77 and the sliver 1e-8 a^2 squares to a
# subnormal below about 1e-73; the range keeps a wide margin to both
MIN_RADIUS = 1e-50
MAX_RADIUS = 1e50


def _check_radius(a):
    """Refuse a radius a of U(-a, a) outside [MIN_RADIUS, MAX_RADIUS]."""
    if not MIN_RADIUS <= a <= MAX_RADIUS:
        raise ValueError(
            f"interval radius a must lie in [{MIN_RADIUS:g}, {MAX_RADIUS:g}], got {a!r}"
        )


@dataclass(frozen=True)
class MomentReport:
    """Quadrature moments of the random logistic plus their MC cross-check."""

    a: float
    expectation: float
    variance: float
    quad_error: float
    mc_expectation: float
    mc_stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class ErrorRateRow:
    """Per-term expected-error rates and MC magnitudes for one m.

    rate_linear and rate_bilinear are the analytic per-term rates
    1 / 2^(m+1) and 1 / 2^(2m+1); the mc columns estimate the mean
    absolute per-term error magnitudes under iid U(-a, a) sampling.
    """

    m: int
    rate_linear: float
    rate_bilinear: float
    mc_linear: float
    mc_bilinear: float


def product_pdf(z, a: float):
    """Density of X(Y - Z) on [-2a^2, 2a^2], zero outside.

    g(z) = (1 / 2a^2) (ln(2a^2 / |z|) + |z| / 2a^2 - 1); the log
    singularity at z = 0 is integrable but the point itself is rejected so
    quadrature code cannot silently evaluate it.
    """
    _check_radius(a)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(z == 0.0):
        raise ValueError("product density is singular at z = 0")
    hi = 2.0 * a * a
    az = np.abs(z)
    inside = az <= hi
    out = np.zeros_like(z)
    azi = az[inside]
    out[inside] = (np.log(hi / azi) + azi / hi - 1.0) / hi
    return float(out[0]) if scalar else out


def _mass_zero_to(u, a: float):
    """Analytic mass of the product density on [0, u], elementwise, 0 <= u <= 2a^2."""
    hi = 2.0 * a * a
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = (u * np.log(hi / u) + u * u / (2.0 * hi)) / hi
    return np.where(u == 0.0, 0.0, mass)


def _lotus(a: float, fn):
    """Integral of product_pdf * fn, with the singular sliver handled analytically.

    The interval |z| <= eps = 1e-8 a^2 carries analytic mass; fn is
    replaced there by fn(0), which for a smooth fn such as the logistic
    and its square is its symmetric average over the sliver to O(eps^2).
    On each half of the rest, [eps, 2a^2] and its mirror, the substitution
    z = e^t turns the density's logarithmic endpoint growth into a smooth
    function of t, which _PANELS equal 50-node Gauss-Legendre panels
    integrate to about 1e-15, the accuracy of numpy's leggauss weights.  A
    check rule with twice the panels runs alongside; each half takes the
    finer value with |fine - coarse| as its error estimate, and an estimate
    that is not at most 1e-13 + 1e-12 |fine|, NaN included, raises
    QuadratureError.  The density is even, so each rule evaluates it once
    for both halves.  fn takes and returns arrays.  Returns the integral
    and the sum of the two halves' error estimates.
    """
    eps = 1e-8 * a * a
    hi = 2.0 * a * a
    t0, t1 = math.log(eps), math.log(hi)
    rules = []  # per rule: the positive half's sum, then the negative half's
    for panels in (_PANELS, 2 * _PANELS):
        edges = np.linspace(t0, t1, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        z = np.exp((mid[:, None] + half[:, None] * _PANEL_NODES).ravel())
        w = (half[:, None] * _PANEL_WEIGHTS).ravel()
        pdf = product_pdf(z, a)
        rules.append([math.fsum(w * ((pdf * fn(u)) * z)) for u in (z, -z)])
    (c_pos, c_neg), (pos, neg) = rules
    err_pos, err_neg = abs(pos - c_pos), abs(neg - c_neg)
    for fine, err in ((pos, err_pos), (neg, err_neg)):
        if not err <= 1e-13 + 1e-12 * abs(fine):
            raise QuadratureError(
                f"quadrature on [{eps:.3g}, {hi:.3g}] did not converge: rules with "
                f"{_PANELS} and {2 * _PANELS} panels differ by {err:.3g}"
            )
    return pos + neg + fn(0.0) * 2.0 * _mass_zero_to(eps, a), err_pos + err_neg


def product_pdf_normalization(a: float) -> float:
    """Integral of the product density over its support; equals 1."""
    return _lotus(a, lambda z: 1.0)[0]


def _draws(rng, a: float, flat, k: int, b: int):
    """The next k b doubles of the stream as k rows of b U(-a, a) values.

    The rows are a view of flat, rewritten in place; the bits are those of
    rng.uniform(-a, a, (k, b)), which also computes -a + (a - -a) u.
    """
    rows = flat[: k * b].reshape(k, b)
    rng.random(out=rows)
    rows *= a - -a
    rows += -a
    return rows


def _random_logistic(x, y, z):
    """sigma(X(Y - Z)) on one block of draws, written into y."""
    y -= z
    y *= x
    return stable_sigmoid(y, out=y)


def _weighted_logistic(alpha, w, y, z):
    """|alpha w| sigma(alpha (y - z)) on one block; overwrites w and y.

    Every symbol is iid U(-a, a); the steepness that multiplies the error
    term is the same draw that steepens its own logistic factor.
    """
    out = _random_logistic(alpha, y, z)
    w *= alpha
    out *= np.abs(w, out=w)
    return out


def _check_work(samples: int, factors: int) -> None:
    """Refuse an estimate outside [1, MAX_SAMPLES] samples or above
    MAX_SAMPLE_FACTORS sample-factors; callers check before drawing."""
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}, got {samples}")
    if samples * factors > MAX_SAMPLE_FACTORS:
        raise ValueError(
            f"samples x factors per sample must be at most {MAX_SAMPLE_FACTORS}, "
            f"got {samples} x {factors}"
        )


def _mc_products(a: float, rows, samples: int, seed, *, weighted: bool = False):
    """MC mean and standard error of first * (j random logistics).

    The first factor is 1, or with weighted the error term
    _weighted_logistic.  Each block of at most _BLOCK samples starts from
    the first factor and multiplies in max(rows) random logistics one at a
    time, summing the product only after the factor counts listed in rows;
    entry i of each returned array describes the product after rows[i]
    factors.  One sample has no spread to estimate, so its standard error
    is inf.
    """
    rows = np.asarray(rows, dtype=int)
    n = int(rows.max())
    _check_work(samples, n + weighted)
    read = set(rows.tolist())
    rng = np.random.default_rng(seed)
    s1 = np.zeros(n + 1)
    s2 = np.zeros(n + 1)
    # every block reuses one flat draw buffer and one running product; the
    # product's square goes into the X row, dead once its logistic is formed
    width = min(_BLOCK, samples)
    draws = np.empty((3 + weighted) * width)
    prods = np.empty(width)
    for start in range(0, samples, _BLOCK):
        b = min(_BLOCK, samples - start)
        prod = prods[:b]
        if weighted:
            np.copyto(prod, _weighted_logistic(*_draws(rng, a, draws, 4, b)))
        else:
            prod.fill(1.0)
        for j in range(1, n + 1):
            x, y, z = _draws(rng, a, draws, 3, b)
            prod *= _random_logistic(x, y, z)
            if j in read:
                s1[j] += prod.sum()
                s2[j] += np.multiply(prod, prod, out=x).sum()
    mean = s1[rows] / samples
    var = np.maximum(s2[rows] / samples - mean * mean, 0.0)
    if samples > 1:
        stderr = np.sqrt(var * samples / (samples - 1) / samples)
    else:
        stderr = np.full(rows.shape, np.inf)
    return mean, stderr


def _dimensions(m_values) -> list:
    """m_values as ints in [1, MAX_M]; 1.5 or 0 is an error, not a row."""
    values = list(m_values)
    ms = [int(m) for m in values]
    if ms != values or not 1 <= min(ms, default=1) <= max(ms, default=1) <= MAX_M:
        raise ValueError(f"m values must be integers from 1 to {MAX_M}, got {values}")
    return ms


def expected_logistic(a: float, *, samples: int, seed: int) -> MomentReport:
    """Logistic moments by quadrature, with the MC cross-check attached.

    expectation and variance come from integrating the logistic and its
    square against the product density; quad_error sums the two
    integrals' error estimates.  The mc fields repeat the estimation with
    sampled draws so the two routes can be compared.
    """
    _check_radius(a)
    e1, err1 = _lotus(a, stable_sigmoid)
    e2, err2 = _lotus(a, lambda z: stable_sigmoid(z) ** 2)
    mean, stderr = _mc_products(a, [1], samples, seed)
    return MomentReport(
        a=float(a),
        expectation=float(e1),
        variance=float(e2 - e1 * e1),
        quad_error=float(err1 + err2),
        mc_expectation=float(mean[0]),
        mc_stderr=float(stderr[0]),
        samples=int(samples),
        seed=int(seed),
    )


def mc_conjunctive_table(m_values, a: float, samples: int, seed: int):
    """Mean and standard error of a product of m random logistics, per m.

    Each mean estimates E[Lambda] for m coordinates, which tracks 1/2^m.
    Every row reads the same sample path (seed ``seed``, max(m) factors
    per block), so the rows are paired; returns one (mean, stderr) pair
    per entry of m_values.
    """
    ms = _dimensions(m_values)
    _check_radius(a)
    if not ms:
        return []
    mean, stderr = _mc_products(a, ms, samples, seed)
    return list(zip(mean.tolist(), stderr.tolist()))


def expected_error_rates(m_values, a: float, *, samples: int, seed: int):
    """Analytic per-term rates and MC error magnitudes for each m.

    The analytic columns are 1/2^(m+1) and 1/2^(2m+1); their ratio is
    exactly 2^m.  The MC columns halve (respectively quarter) per unit m,
    confirming the exponential decrease in the measurement dimension.
    Every row reads one sample path seeded with ``seed``, drawing
    2 max(m) logistic factors per block.
    """
    ms = _dimensions(m_values)
    _check_radius(a)
    if not ms:
        return []
    # the linearization term carries m logistic factors, the bilinear term
    # 2m; signed means vanish by the symmetry of w, so the rows hold the
    # mean absolute per-term magnitudes
    rows = [j for m in ms for j in (m, 2 * m)]
    mean, _ = _mc_products(a, rows, samples, seed, weighted=True)
    return [
        ErrorRateRow(
            m=m,
            rate_linear=2.0 ** -(m + 1),
            rate_bilinear=2.0 ** -(2 * m + 1),
            mc_linear=lin,
            mc_bilinear=bil,
        )
        for m, (lin, bil) in zip(ms, mean.reshape(-1, 2).tolist())
    ]


def moment_sweep(a_values, samples: int, seed: int):
    """expected_logistic per interval radius, seeds offset by sweep index."""
    return [
        expected_logistic(float(a), samples=samples, seed=seed + i)
        for i, a in enumerate(a_values)
    ]

