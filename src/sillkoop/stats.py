"""Sampling statistics of randomly parameterized logistic functions.

With center, steepness, and measurement drawn iid from the symmetric
uniform U(-a, a), the logistic argument alpha * (y - mu) is the product
X(Y - Z) of three such variables.  Y - Z has a triangular density; the
product then has a closed-form density with an integrable log singularity
at zero.  Expectations of the logistic under that density have no closed
form, so they are computed by singularity-aware quadrature (analytic mass
on a small interval around zero, adaptive quadrature outside) and
cross-checked by Monte Carlo.

Every Monte Carlo statistic is one call of a single estimator: in blocks
of at most 2^20 samples it draws a first factor, then multiplies in
random logistics sigma(X(Y - Z)) one at a time, each drawn as one (3, k)
block of U(-a, a) values (rows X, Y, Z).  Draws come from numpy's PCG64
generator seeded explicitly, so every estimate is a pure function of its
parameters and seed.  Per estimator, seed and draws per block:

* expected_logistic: seed ``seed``; one random logistic.
* mc_conjunctive(m): seed ``seed``; m random logistics (the first factor
  is 1 and draws nothing).
* expected_error_rates, row m: seed ``[seed, m]``; one (4, k) block of
  alpha, w, y, z for |alpha w| sigma(alpha (y - z)), then 2m random
  logistics; the linearization term is read after m of them, the
  bilinear term after all 2m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .dictionary import _write_csv, stable_sigmoid
from .errors import QuadratureError

__all__ = [
    "UniformIntervalSpec",
    "MomentReport",
    "ErrorRateRow",
    "triangular_pdf",
    "product_pdf",
    "product_cdf",
    "product_pdf_normalization",
    "expected_logistic",
    "mc_conjunctive",
    "expected_error_rates",
    "moment_sweep",
    "write_moment_csv",
    "write_error_rate_csv",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class UniformIntervalSpec:
    """Radius of the symmetric sampling interval: X, Y, Z ~ U(-a, a) iid."""

    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("interval radius a must be positive")


@dataclass(frozen=True)
class MomentReport:
    """Quadrature moments of the random logistic plus their MC cross-check."""

    a: float
    expectation: float
    variance: float
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


def triangular_pdf(x, a: float):
    """Density of Y - Z (equivalently Y + Z): 1/(2a) - |x|/(4a^2) on [-2a, 2a]."""
    UniformIntervalSpec(a)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    val = 1.0 / (2.0 * a) - np.abs(x) / (4.0 * a * a)
    out = np.where(np.abs(x) <= 2.0 * a, val, 0.0)
    return float(out) if scalar else out


def product_pdf(z, a: float):
    """Density of X(Y - Z) on [-2a^2, 2a^2], zero outside.

    g(z) = (1 / 2a^2) (ln(2a^2 / |z|) + |z| / 2a^2 - 1); the log
    singularity at z = 0 is integrable but the point itself is rejected so
    quadrature code cannot silently evaluate it.
    """
    UniformIntervalSpec(a)
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


def _mass_zero_to(u: float, a: float) -> float:
    """Analytic integral of the product density from 0 to u, 0 <= u <= 2a^2."""
    hi = 2.0 * a * a
    if u == 0.0:
        return 0.0
    return (u * np.log(hi / u) + u * u / (2.0 * hi)) / hi


def product_cdf(z, a: float):
    """Closed-form CDF of X(Y - Z); the density integrates exactly."""
    UniformIntervalSpec(a)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    hi = 2.0 * a * a
    clipped = np.clip(np.abs(z), 0.0, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = (clipped * np.log(hi / clipped) + clipped**2 / (2.0 * hi)) / hi
    half = np.where(clipped == 0.0, 0.0, half)
    out = np.where(z >= 0, 0.5 + half, 0.5 - half)
    return float(out[0]) if scalar else out


def _outer_quad(fn, lo: float, hi: float, limit: int) -> float:
    """Integrate fn over [lo, hi], 0 < lo < hi, in log coordinates.

    The substitution z = e^t turns the logarithmic endpoint growth of the
    product density into a polynomial in t, so adaptive quadrature
    converges without fighting the singularity.
    """
    res = quad(
        lambda t: fn(np.exp(t)) * np.exp(t),
        np.log(lo),
        np.log(hi),
        limit=limit,
        epsabs=1e-13,
        epsrel=1e-12,
        full_output=1,
    )
    if len(res) > 3:
        raise QuadratureError(
            f"quadrature on [{lo:.3g}, {hi:.3g}] did not converge: {res[3]}"
        )
    return res[0]


def _lotus(a: float, fn, inner_coeff: float, quad_points: int) -> float:
    """Integral of product_pdf * fn with the singular sliver handled analytically.

    The interval |z| <= eps = 1e-8 a^2 carries analytic mass; fn is
    replaced there by its symmetric average at 0 (inner_coeff), which for
    the logistic and its square is exact to O(eps^2).
    """
    if quad_points < 100:
        raise ValueError("need at least 100 quadrature subdivisions")
    eps = 1e-8 * a * a
    hi = 2.0 * a * a
    total = _outer_quad(lambda u: product_pdf(u, a) * fn(u), eps, hi, quad_points)
    total += _outer_quad(lambda u: product_pdf(-u, a) * fn(-u), eps, hi, quad_points)
    total += inner_coeff * 2.0 * _mass_zero_to(eps, a)
    return total


def product_pdf_normalization(a: float, quad_points: int = 200) -> float:
    """Integral of the product density over its support; equals 1."""
    return _lotus(a, lambda z: 1.0, 1.0, quad_points)


def _random_logistic(rng, a: float, k: int):
    """k draws of sigma(X(Y - Z)), X, Y, Z ~ U(-a, a) iid, as one (3, k) block."""
    u = rng.uniform(-a, a, size=(3, k))
    return stable_sigmoid(u[0] * (u[1] - u[2]))


def _weighted_logistic(rng, a: float, k: int):
    """k draws of |alpha w| sigma(alpha (y - z)), drawn as one (4, k) block.

    Every symbol is iid U(-a, a); the steepness that multiplies the error
    term is the same draw that steepens its own logistic factor.
    """
    alpha, w, y, z = rng.uniform(-a, a, size=(4, k))
    return np.abs(alpha * w) * stable_sigmoid(alpha * (y - z))


def _mc_products(first, a: float, n: int, samples: int, seed):
    """MC mean, variance and standard error of first * (j random logistics).

    Each block of at most _CHUNK samples draws first(rng, a, k) and then
    the n factors one at a time, so row j of each returned length-(n + 1)
    array describes the product after j factors.  One sample has no
    spread to estimate, so its standard error is inf.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    s1 = np.zeros(n + 1)
    s2 = np.zeros(n + 1)
    left = samples
    while left:
        k = min(left, _CHUNK)
        prod = first(rng, a, k)
        for j in range(n + 1):
            if j:
                prod *= _random_logistic(rng, a, k)
            s1[j] += prod.sum()
            s2[j] += (prod * prod).sum()
        left -= k
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean * mean, 0.0)
    if samples > 1:
        stderr = np.sqrt(var * samples / (samples - 1) / samples)
    else:
        stderr = np.full(n + 1, np.inf)
    return mean, var, stderr


def expected_logistic(
    a: float,
    quad_points: int = 200,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
) -> MomentReport:
    """Logistic moments by quadrature, with the MC cross-check attached.

    expectation and variance come from integrating the logistic and its
    square against the product density; the mc fields repeat the
    estimation with sampled draws so the two routes can be compared.
    """
    UniformIntervalSpec(a)
    e1 = _lotus(a, stable_sigmoid, 0.5, quad_points)
    e2 = _lotus(a, lambda z: stable_sigmoid(z) ** 2, 0.25, quad_points)
    mean, _, stderr = _mc_products(_random_logistic, a, 0, samples, seed)
    return MomentReport(
        a=float(a),
        expectation=float(e1),
        variance=float(e2 - e1 * e1),
        mc_expectation=float(mean[0]),
        mc_stderr=float(stderr[0]),
        samples=int(samples),
        seed=int(seed),
    )


def mc_conjunctive(m: int, a: float, samples: int, seed: int):
    """Mean and standard error of a product of m independent random logistics.

    The mean estimates E[Lambda] for m coordinates, which tracks 1/2^m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    UniformIntervalSpec(a)
    mean, _, stderr = _mc_products(lambda rng, a, k: np.ones(k), a, m, samples, seed)
    return float(mean[m]), float(stderr[m])


def expected_error_rates(
    m_values,
    a: float,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
):
    """Analytic per-term rates and MC error magnitudes for each m.

    The analytic columns are 1/2^(m+1) and 1/2^(2m+1); their ratio is
    exactly 2^m.  The MC columns halve (respectively quarter) per unit m,
    confirming the exponential decrease in the measurement dimension.
    """
    UniformIntervalSpec(a)
    rows = []
    for m in m_values:
        m = int(m)
        if m < 1:
            raise ValueError("all m values must be at least 1")
        # the linearization term carries m logistic factors, the bilinear
        # term 2m; signed means vanish by the symmetry of w, so the rows
        # hold the mean absolute per-term magnitudes
        mean, _, _ = _mc_products(_weighted_logistic, a, 2 * m, samples, [seed, m])
        rows.append(
            ErrorRateRow(
                m=m,
                rate_linear=2.0 ** -(m + 1),
                rate_bilinear=2.0 ** -(2 * m + 1),
                mc_linear=float(mean[m]),
                mc_bilinear=float(mean[2 * m]),
            )
        )
    return rows


def moment_sweep(a_values, quad_points: int, samples: int, seed: int):
    """expected_logistic per interval radius, seeds offset by sweep index."""
    reports = []
    for i, a in enumerate(a_values):
        reports.append(
            expected_logistic(float(a), quad_points, samples=samples, seed=seed + i)
        )
    return reports


def write_moment_csv(reports, path) -> None:
    header = "a,expectation,variance,mc_expectation,mc_stderr,samples,seed"
    floats = ("a", "expectation", "variance", "mc_expectation", "mc_stderr")
    rows = [[repr(getattr(r, k)) for k in floats] + [r.samples, r.seed] for r in reports]
    _write_csv(path, header, rows)


def write_error_rate_csv(rows, path) -> None:
    header = "m,rate_linear,rate_bilinear,mc_linear,mc_bilinear"
    floats = ("rate_linear", "rate_bilinear", "mc_linear", "mc_bilinear")
    _write_csv(path, header, [[r.m] + [repr(getattr(r, k)) for k in floats] for r in rows])
