import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from sillkoop import cli, stats
from sillkoop.dictionary import stable_sigmoid
from sillkoop.errors import QuadratureError
from sillkoop.stats import (
    _BLOCK,
    MAX_M,
    MAX_RADIUS,
    MAX_SAMPLE_FACTORS,
    MAX_SAMPLES,
    MIN_RADIUS,
    _check_radius,
    _mass_zero_to,
    expected_error_rates,
    expected_logistic,
    mc_conjunctive_table,
    moment_sweep,
    product_pdf,
    product_pdf_normalization,
)


def _product_cdf(z, a):
    """CDF of X(Y - Z) on its support: 0.5 -/+ the closed-form mass on [0, |z|]."""
    z = np.asarray(z, dtype=float)
    half = _mass_zero_to(np.abs(z), a)
    return np.where(z >= 0, 0.5 + half, 0.5 - half)


def test_interval_spec_requires_positive_radius():
    with pytest.raises(ValueError):
        _check_radius(0.0)
    with pytest.raises(ValueError):
        _check_radius(-1.0)
    for a in (np.inf, np.nan):
        with pytest.raises(ValueError):
            _check_radius(a)


def test_interval_spec_range_keeps_every_intermediate_finite():
    # at both ends the moments and every Monte Carlo sum stay finite
    for a in (MIN_RADIUS, MAX_RADIUS):
        rep = expected_logistic(a, samples=1_000, seed=0)
        assert abs(rep.expectation - 0.5) < 1e-12 and rep.quad_error < 1e-13
        assert 0.0 <= rep.variance <= 0.25 and np.isfinite(rep.mc_stderr)
        (row,) = expected_error_rates([2], a, samples=1_000, seed=0)
        assert 0.0 < row.mc_bilinear < row.mc_linear < np.inf
    for a in (np.nextafter(MIN_RADIUS, 0.0), np.nextafter(MAX_RADIUS, np.inf)):
        with pytest.raises(ValueError, match="interval radius"):
            _check_radius(a)


def test_product_pdf_support_endpoints():
    a = 2.0
    assert product_pdf(2 * a * a, a) == pytest.approx(0.0, abs=1e-15)
    assert product_pdf(-2 * a * a, a) == pytest.approx(0.0, abs=1e-15)
    assert product_pdf(2 * a * a + 1.0, a) == 0.0


def test_product_pdf_symmetric():
    a = 1.3
    z = np.linspace(0.01, 2 * a * a, 200)
    np.testing.assert_array_equal(product_pdf(z, a), product_pdf(-z, a))


def test_product_pdf_rejects_zero_and_bad_a():
    with pytest.raises(ValueError):
        product_pdf(0.0, 1.0)
    with pytest.raises(ValueError):
        product_pdf(np.array([0.5, 0.0]), 1.0)
    with pytest.raises(ValueError):
        product_pdf(0.5, -1.0)


@pytest.mark.parametrize("a", [1.0, 2.0, 4.0, 8.0])
def test_product_pdf_normalizes(a):
    assert abs(product_pdf_normalization(a) - 1.0) < 1e-6


def test_product_cdf_limits_and_median():
    a = 2.0
    assert float(_product_cdf(-2 * a * a, a)) == pytest.approx(0.0, abs=1e-15)
    assert float(_product_cdf(2 * a * a, a)) == pytest.approx(1.0, abs=1e-15)
    assert float(_product_cdf(0.0, a)) == pytest.approx(0.5)


def test_product_pdf_against_mc_cdf():
    # empirical CDF of 10^6 sampled products vs the closed-form CDF
    a = 2.0
    rng = np.random.default_rng(3)
    u = rng.uniform(-a, a, size=(3, 1_000_000))
    draws = np.sort(u[0] * (u[1] - u[2]))
    grid = np.linspace(-2 * a * a, 2 * a * a, 401)
    empirical = np.searchsorted(draws, grid) / draws.size
    assert np.abs(empirical - _product_cdf(grid, a)).max() < 5e-3


@pytest.mark.parametrize("a", [1.0, 2.0, 4.0, 8.0])
def test_expected_logistic_is_half(a):
    rep = expected_logistic(a, samples=10_000, seed=1)
    assert abs(rep.expectation - 0.5) < 1e-3


def test_variance_increases_with_interval_radius():
    reps = [expected_logistic(a, samples=1_000, seed=0) for a in (1, 2, 4, 8)]
    variances = [r.variance for r in reps]
    assert np.all(np.diff(variances) > 0)
    assert variances[-1] < 0.25


def test_variance_vanishes_for_tiny_interval():
    rep = expected_logistic(0.01, samples=1_000, seed=0)
    assert rep.variance < 1e-6


def _adaptive_lotus(a, fn, inner_coeff):
    # the moments as computed before the fixed rule: analytic mass on the
    # 1e-8 a^2 sliver, adaptive quad on each half in log coordinates
    eps, hi = 1e-8 * a * a, 2.0 * a * a
    total = inner_coeff * 2.0 * (eps * np.log(hi / eps) + eps * eps / (2.0 * hi)) / hi
    for sign in (1.0, -1.0):
        def integrand(t):
            z = sign * np.exp(t)
            return product_pdf(z, a) * fn(z) * np.exp(t)

        res = quad(
            integrand, np.log(eps), np.log(hi), limit=200, epsabs=1e-13, epsrel=1e-12,
            full_output=1,
        )
        assert len(res) == 3, res[3]  # a fourth entry is quad's failure message
        total += res[0]
    return total


@pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0])
def test_moments_match_adaptive_quadrature(a):
    e1 = _adaptive_lotus(a, expit, 0.5)
    e2 = _adaptive_lotus(a, lambda z: expit(z) ** 2, 0.25)
    rep = expected_logistic(a, samples=10, seed=0)
    assert abs(rep.expectation - e1) < 1e-14
    assert abs(rep.variance - (e2 - e1 * e1)) < 1e-14
    assert 0.0 <= rep.quad_error < 1e-13
    norm = _adaptive_lotus(a, lambda z: 1.0, 1.0)
    assert abs(product_pdf_normalization(a) - norm) < 1e-13


def test_unresolved_integrand_raises_quadrature_error():
    # cos(1000 z) swings ~300 times over the support; the coarse and the
    # check rule land on different values, so neither is trusted
    with pytest.raises(QuadratureError, match="did not converge"):
        stats._lotus(1.0, lambda z: np.cos(1e3 * z))


def test_nan_integrand_raises_quadrature_error():
    # NaN compares false with any tolerance, and a NaN error estimate
    # must still fail the check
    with pytest.raises(QuadratureError, match="differ by nan"):
        stats._lotus(1.0, lambda z: z * np.nan)


def test_mc_expected_logistic_deterministic():
    r1 = expected_logistic(2.0, samples=50_000, seed=42)
    r2 = expected_logistic(2.0, samples=50_000, seed=42)
    assert r1 == r2
    r3 = expected_logistic(2.0, samples=50_000, seed=43)
    assert r3.mc_expectation != r1.mc_expectation


def test_mc_expected_logistic_near_half():
    rep = expected_logistic(2.0, samples=200_000, seed=7)
    assert abs(rep.mc_expectation - 0.5) <= 3 * rep.mc_stderr
    assert rep.mc_stderr > 0


def test_quadrature_and_mc_agree():
    for a in (1.0, 2.0, 4.0, 8.0):
        rep = expected_logistic(a, samples=200_000, seed=9)
        assert abs(rep.expectation - rep.mc_expectation) <= max(
            3 * rep.mc_stderr, 1e-3
        )


def test_expected_conjunctive_m1_near_half():
    est = mc_conjunctive_table([1], 2.0, 200_000, seed=2)[0][0]
    assert abs(est - 0.5) < 5e-3


def test_expected_conjunctive_m4_tracks_sixteenth():
    est, stderr = mc_conjunctive_table([4], 2.0, 200_000, seed=3)[0]
    assert abs(est - 1.0 / 16.0) <= 3 * stderr
    assert est <= 1.0 / 16.0 + 3 * stderr


def test_expected_conjunctive_single_sample_in_range():
    est = mc_conjunctive_table([1], 2.0, samples=1, seed=0)[0][0]
    assert 0.0 < est < 1.0


def test_conjunctive_bound_sweep():
    for m in range(1, 7):
        est, stderr = mc_conjunctive_table([m], 2.0, 100_000, seed=m)[0]
        assert est <= 2.0**-m + 3 * stderr


def test_error_rate_analytic_columns():
    rows = expected_error_rates([3], 2.0, samples=1_000, seed=0)
    assert rows[0].rate_linear == 1.0 / 16.0
    assert rows[0].rate_bilinear == 1.0 / 128.0


def test_error_rate_ratio_is_exactly_2_to_m():
    rows = expected_error_rates(range(1, 7), 2.0, samples=1_000, seed=0)
    for r in rows:
        assert r.rate_linear / r.rate_bilinear == 2.0**r.m


def test_error_rate_mc_halves_per_unit_m():
    rows = expected_error_rates(range(1, 7), 2.0, samples=200_000, seed=5)
    slope = np.polyfit([r.m for r in rows], np.log2([r.mc_linear for r in rows]), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_error_rate_mc_deterministic():
    a = expected_error_rates([2, 3], 2.0, samples=10_000, seed=1)
    b = expected_error_rates([2, 3], 2.0, samples=10_000, seed=1)
    assert a == b


def test_moment_sweep_rows_and_expectations():
    reports = moment_sweep([1.0, 2.0, 4.0, 8.0], samples=10_000, seed=0)
    assert len(reports) == 4
    assert all(abs(r.expectation - 0.5) < 1e-3 for r in reports)
    assert np.all(np.diff([r.variance for r in reports]) > 0)
    assert [r.seed for r in reports] == [0, 1, 2, 3]


def _stats_csv(tmp_path, name, **cfg):
    """One CSV of the stats command run on cfg at seed 0."""
    (tmp_path / "stats.json").write_text(json.dumps(cfg))
    argv = ["stats", "--config", tmp_path / "stats.json", "--out", tmp_path / "o", "--seed", 0]
    assert cli.main([str(a) for a in argv]) == 0
    return (tmp_path / "o" / name).read_text()


def test_moment_csv_layout(tmp_path):
    reports = moment_sweep([1.0, 2.0], samples=1_000, seed=0)
    text = _stats_csv(tmp_path, "moments.csv", a_values=[1.0, 2.0], samples=1_000, m_values=[])
    lines = text.strip().split("\n")
    assert lines[0] == (
        "a,expectation,variance,quad_error,mc_expectation,mc_stderr,samples,seed"
    )
    assert len(lines) == 3
    # values round-trip through repr
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[3]) == reports[0].quad_error
    assert int(first[6]) == 1_000


def test_error_rate_csv_layout(tmp_path):
    text = _stats_csv(tmp_path, "error_rates.csv", a_values=[], samples=1_000, m_values=[2])
    lines = text.strip().split("\n")
    assert lines[0] == "m,rate_linear,rate_bilinear,mc_linear,mc_bilinear"
    assert lines[1].startswith("2,0.125,0.03125,")
    # the Monte Carlo columns are the library's rows, through repr
    (row,) = expected_error_rates([2], 2.0, samples=1_000, seed=0)
    assert lines[1] == f"2,0.125,0.03125,{row.mc_linear!r},{row.mc_bilinear!r}"
    # "rate_a": null is the default 2.0, as a missing key is: the same CSVs
    csvs = {}
    for rate_a in (None, 2.0):
        run = tmp_path / repr(rate_a)
        run.mkdir()
        cfg = dict(a_values=[1.0], samples=1_000, m_values=[1, 2], rate_a=rate_a)
        _stats_csv(run, "moments.csv", **cfg)
        names = ("moments.csv", "error_rates.csv", "conjunctive.csv")
        csvs[rate_a] = [(run / "o" / name).read_bytes() for name in names]
    assert csvs[None] == csvs[2.0]


def test_mc_sample_count_validation():
    with pytest.raises(ValueError):
        expected_logistic(1.0, samples=0, seed=0)
    with pytest.raises(ValueError):
        mc_conjunctive_table([0], 1.0, 100, seed=0)
    with pytest.raises(ValueError):
        expected_error_rates([0], 1.0, samples=100, seed=0)
    with pytest.raises(ValueError):
        expected_error_rates([1.5], 1.0, samples=100, seed=0)
    with pytest.raises(ValueError):
        mc_conjunctive_table([2, 0], 1.0, 100, seed=0)


def test_error_rates_reject_zero_samples():
    with pytest.raises(ValueError):
        expected_error_rates([1], 2.0, samples=0, seed=0)


def test_mc_estimators_reject_counts_above_their_limits(monkeypatch):
    # refused before anything is drawn or allocated
    with pytest.raises(ValueError, match="samples"):
        expected_error_rates([1], 2.0, samples=MAX_SAMPLES + 1, seed=0)
    with pytest.raises(ValueError, match="samples"):
        mc_conjunctive_table([1], 2.0, 10**21, seed=0)
    with pytest.raises(ValueError, match="m values"):
        mc_conjunctive_table([1, MAX_M + 1], 2.0, 10, seed=0)
    with pytest.raises(ValueError, match="m values"):
        expected_error_rates([10**21], 2.0, samples=10, seed=0)
    assert len(mc_conjunctive_table([MAX_M], 2.0, 1, seed=0)) == 1

    # each count within its limit, their product not; a run the check let
    # through stops at its first factor instead of running for hours
    def never(*args):
        raise AssertionError("drew past the work limit")

    monkeypatch.setattr(stats, "_random_logistic", never)
    monkeypatch.setattr(stats, "_weighted_logistic", never)
    with pytest.raises(ValueError, match="factors per sample"):
        expected_error_rates([MAX_M], 2.0, samples=MAX_SAMPLES, seed=0)
    with pytest.raises(ValueError, match="factors per sample"):
        mc_conjunctive_table([MAX_M], 2.0, MAX_SAMPLE_FACTORS // MAX_M + 1, seed=0)
    # the error term counts as a factor: m = 500 is 2 * 500 + 1 of them
    with pytest.raises(ValueError, match="factors per sample"):
        expected_error_rates([500], 2.0, samples=MAX_SAMPLE_FACTORS // 1001 + 1, seed=0)
    stats._check_work(MAX_SAMPLE_FACTORS // 1001, 1001)
    stats._check_work(MAX_SAMPLE_FACTORS // MAX_M, MAX_M)


@pytest.mark.parametrize("a, seed", [(2.0, 3), (3.0, 8)])
def test_mc_products_match_closed_form_means(a, seed):
    # sigma(X (Y - Z)) averages 1/2 because Y - Z is symmetric, and the
    # factors are independent, so a product of j of them averages 2^-j.
    # The error term |alpha w| sigma(alpha (y - z)) averages
    # E|alpha| E|w| / 2 = a^2 / 8: given alpha, its logistic still averages 1/2
    samples = 200_000
    ms = np.array([1, 2, 3])
    mean, stderr = stats._mc_products(a, ms, samples, seed)
    assert np.all(np.isfinite(stderr) & (stderr > 0))
    assert np.all(np.abs(mean - 2.0**-ms) <= 5.0 * stderr)
    assert abs(mean[0] - 0.5) <= 5.0 * stderr[0]
    rows = np.array([j for m in ms for j in (m, 2 * m)])
    mean, stderr = stats._mc_products(a, rows, samples, seed, weighted=True)
    assert np.all(np.isfinite(stderr) & (stderr > 0))
    assert np.all(np.abs(mean - a * a / 8.0 * 2.0**-rows) <= 5.0 * stderr)


@pytest.mark.parametrize("table", ["conjunctive", "error_rates"])
def test_mc_peak_memory_is_two_block_arrays_whatever_the_depth(table):
    # one block of draws (three rows, four for the error term's first
    # factor) and the running product are allocated once per call, and the
    # sigmoid and the square run in place, so the traced peak is four or
    # five block-length arrays; it grows neither with the number of
    # factors nor with the number of blocks
    def peak(m, samples):
        ms = list(range(1, m + 1))
        tracemalloc.start()
        try:
            if table == "conjunctive":
                mc_conjunctive_table(ms, 2.0, samples, seed=0)
            else:
                expected_error_rates(ms, 2.0, samples=samples, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1, 1)  # the first numpy calls in a process allocate once
    block = 8 * _BLOCK
    shallow, deep = peak(1, 4 * _BLOCK), peak(6, 4 * _BLOCK)
    assert shallow < 6 * block
    assert deep < 6 * block
    assert deep <= shallow + block
    assert peak(1, 64 * _BLOCK) <= shallow
    assert peak(6, 64 * _BLOCK) <= deep


def _reference_conjunctive(m_values, a, samples, seed):
    # the draw layout the estimator must keep, written out loop by loop: one
    # path per table, max(m) logistics per block, row m read after m of
    # them; m = 1 alone is also the logistic-moment loop (1 * sigma is
    # exactly sigma)
    rng = np.random.default_rng(seed)
    s1 = dict.fromkeys(m_values, 0.0)
    s2 = dict.fromkeys(m_values, 0.0)
    left = samples
    while left:
        k = min(left, _BLOCK)
        prod = np.ones(k)
        for j in range(1, max(m_values) + 1):
            u = rng.uniform(-a, a, size=(3, k))
            prod *= stable_sigmoid(u[0] * (u[1] - u[2]))
            if j in s1:
                s1[j] += prod.sum()
                s2[j] += (prod * prod).sum()
        left -= k
    rows = []
    for m in m_values:
        mean = s1[m] / samples
        var = max(s2[m] / samples - mean * mean, 0.0)
        stderr = np.sqrt(var * samples / (samples - 1) / samples) if samples > 1 else np.inf
        rows.append((float(mean), float(stderr)))
    return rows


def _reference_error_terms(m_values, a, samples, seed):
    # one path seeded with seed; 2 max(m) logistics per block, the linear
    # term of row m read after m of them and the bilinear term after 2m
    rng = np.random.default_rng(seed)
    sums = dict.fromkeys([j for m in m_values for j in (m, 2 * m)], 0.0)
    left = samples
    while left:
        k = min(left, _BLOCK)
        alpha = rng.uniform(-a, a, k)
        w = rng.uniform(-a, a, k)
        yz = rng.uniform(-a, a, size=(2, k))
        term = np.abs(alpha * w) * stable_sigmoid(alpha * (yz[0] - yz[1]))
        for j in range(1, 2 * max(m_values) + 1):
            u = rng.uniform(-a, a, size=(3, k))
            term = term * stable_sigmoid(u[0] * (u[1] - u[2]))
            if j in sums:
                sums[j] += term.sum()
        left -= k
    return [(float(sums[m] / samples), float(sums[2 * m] / samples)) for m in m_values]


@pytest.mark.parametrize(
    "m, seed, samples",
    [
        (1, 0, 1),
        (2, 3, 1_000),
        (3, 7, 30_000),
        # past 2^20 samples
        (1, 5, 64 * _BLOCK + 777),
        (3, 5, 64 * _BLOCK + 777),
        # block edges, and a 68th block of 5 samples
        (2, 1, _BLOCK - 1),
        (2, 2, _BLOCK),
        (2, 4, _BLOCK + 1),
        (2, 6, 67 * _BLOCK + 5),
    ],
)
def test_mc_estimators_match_reference_draw_layout(m, seed, samples):
    # tables over m, ..., 1, so rows come out of order and several share a path
    a = 2.0
    m_values = list(range(m, 0, -1))
    expected = _reference_conjunctive(m_values, a, samples, seed)
    assert mc_conjunctive_table(m_values, a, samples, seed) == expected
    rows = expected_error_rates(m_values, a, samples=samples, seed=seed)
    assert [(r.mc_linear, r.mc_bilinear) for r in rows] == _reference_error_terms(
        m_values, a, samples, seed
    )
    one_row = mc_conjunctive_table([m], a, samples, seed)[0]
    assert one_row == _reference_conjunctive([m], a, samples, seed)[0]
    rep = expected_logistic(a, samples=samples, seed=seed)
    assert (rep.mc_expectation, rep.mc_stderr) == _reference_conjunctive([1], a, samples, seed)[0]


def test_product_pdf_matches_defining_convolution():
    # independent derivation: the density of X * (Y - Z) is the integral of
    # tri(x) * uniform_pdf(z / x) / |x| over x, which is supported on
    # |x| >= |z| / a; tri(x) = 1/(2a) - |x|/(4a^2) on [-2a, 2a] is the density
    # of Y - Z.  Compare the closed form against direct quadrature
    a = 1.7
    uniform_height = 1.0 / (2.0 * a)
    for z in (0.05, 0.3, 1.0, 2.0 * a * a * 0.9):
        lo = z / a
        integrand = lambda x: (1.0 / (2.0 * a) - x / (4.0 * a * a)) * uniform_height / x
        pos, _ = quad(integrand, lo, 2.0 * a, limit=500)
        direct = 2.0 * pos  # the negative-x half contributes equally
        assert abs(direct - product_pdf(z, a)) < 1e-9
