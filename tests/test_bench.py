import numpy as np
import pytest

from sillkoop.bench import (
    GROWTH_POINTS,
    make_snapshots,
    polynomial_residual_growth,
    rk4_integrate,
    spanned_field,
)
from sillkoop.closure import SpannedField
from sillkoop.dictionary import ConjLogistic, SillDictionary, conj_values
from sillkoop.regression import load_snapshots, save_snapshots

from reference_fields import VAN_DER_POL


def _zero_field(y):
    return np.zeros(2)


def test_rk4_zero_field_constant():
    y, diverged = rk4_integrate(_zero_field, [0.3, -0.4], dt=0.1, steps=10)
    assert not diverged
    np.testing.assert_array_equal(y, np.tile([0.3, -0.4], (11, 1)))


def test_rk4_exponential_decay():
    y, _ = rk4_integrate(lambda y: -y, [1.0], dt=1e-3, steps=1000)
    assert abs(y[-1, 0] - np.exp(-1.0)) < 1e-9


def test_rk4_zero_steps():
    y, _ = rk4_integrate(_zero_field, [0.1, 0.2], dt=0.1, steps=0)
    assert y.shape == (1, 2)


def test_rk4_fourth_order_convergence():
    # halving dt shrinks the endpoint error about sixteenfold
    errs = []
    for dt in (2e-2, 1e-2):
        steps = int(round(1.0 / dt))
        y, _ = rk4_integrate(lambda y: -y, [1.0], dt=dt, steps=steps)
        errs.append(abs(y[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk4_flags_divergence():
    y, diverged = rk4_integrate(lambda y: y * y, [1.0], dt=0.5, steps=100)
    assert diverged
    assert np.isfinite(y).all()


def test_spanned_field_wraps_evaluate():
    d = SillDictionary(2, (ConjLogistic([0.0, 0.5], [2.0, 2.0]),))
    sf = SpannedField(d, np.array([[1.0], [0.5]]))
    F = spanned_field(sf)
    y = np.array([0.2, 0.8])
    np.testing.assert_allclose(F(y), sf.evaluate(y), rtol=1e-15)


def test_spanned_field_zero_weights():
    d = SillDictionary(1, (ConjLogistic([0.0], [2.0]),))
    F = spanned_field(SpannedField(d, np.zeros((1, 1))))
    assert F([0.3]) == pytest.approx(0.0)


def test_spanned_field_center_value_and_bound():
    d = SillDictionary(1, (ConjLogistic([0.4], [3.0]),))
    sf = SpannedField(d, np.array([[1.0]]))
    F = spanned_field(sf)
    assert F([0.4])[0] == pytest.approx(0.5)
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.uniform(-5, 5, 1)
        assert abs(F(y)[0]) < 1.0  # bounded by sum |w|


def test_make_snapshots_exact_derivatives():
    pts = np.linspace(-1, 1, 7)[:, None]
    s = make_snapshots(lambda y: y**3, pts)
    assert s.mode == "CT"
    assert s.r == 7
    np.testing.assert_array_equal(s.D, pts**3)


def test_make_snapshots_rows_match_single_point_evals():
    rng = np.random.default_rng(3)
    vdp = VAN_DER_POL
    pts = rng.uniform(-3, 3, size=(500, 2))
    s = make_snapshots(vdp, pts)
    np.testing.assert_array_equal(s.D, np.stack([vdp(p) for p in pts]))
    d = SillDictionary(
        2, tuple(ConjLogistic(rng.uniform(-2, 2, 2), rng.uniform(1, 6, 2)) for _ in range(12))
    )
    W = rng.normal(0.0, 0.5, (2, 12))
    F = spanned_field(SpannedField(d, W))
    s = make_snapshots(F, pts)
    # the batch matmul may sum in another order: 1e-15 relative to the
    # magnitude of the summands, since the sum itself can cancel
    magnitude = conj_values(pts, d) @ np.abs(W).T
    assert (np.abs(s.D - np.stack([F(p) for p in pts])) <= 1e-15 * magnitude).all()
    # a field that ignores the batch axis is caught, not broadcast
    with pytest.raises(ValueError, match="must be 2-D"):
        make_snapshots(_zero_field, pts)


def test_snapshots_roundtrip_through_csv(tmp_path):
    F = VAN_DER_POL
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(9, 2))
    s = make_snapshots(F, pts)
    save_snapshots(s, tmp_path / "s.csv", tmp_path / "s.json")
    loaded = load_snapshots(tmp_path / "s.csv", tmp_path / "s.json")
    np.testing.assert_array_equal(loaded.Y, s.Y)
    np.testing.assert_array_equal(loaded.D, s.D)


def test_polynomial_dictionary_validation():
    with pytest.raises(ValueError):
        polynomial_residual_growth(0, np.linspace(-10, 10, 201))
    # degree 3 has 4 coefficients and needs 5 points
    with pytest.raises(ValueError, match="more points than coefficients"):
        polynomial_residual_growth(3, np.linspace(-10, 10, 4))


def test_polynomial_residual_linear_case():
    # {1, y} fitting d(y)/dt = y^2 over [-10, 10]: the quadratic cannot
    # cancel, and the best fit leaves a residual comparable to y^2 at the edge
    coeffs, _, _ = polynomial_residual_growth(1, np.linspace(-10, 10, 201))
    edge = abs(10.0**2 - np.polynomial.polynomial.polyval(10.0, coeffs))
    assert edge > 0.5 * 100.0  # within a factor two of the raw quadratic


def test_polynomial_residual_ratio_tends_to_degree():
    for n in (1, 2, 3):
        _, growth, _ = polynomial_residual_growth(n, np.linspace(-10, 10, 201))
        ratio = growth / GROWTH_POINTS ** (n + 1)
        assert ratio[-1] == pytest.approx(n, rel=1e-2)


def test_polynomial_residual_growth_exponent():
    for n in (1, 2, 3):
        _, _, slope = polynomial_residual_growth(n, np.linspace(-10, 10, 201))
        assert abs(slope - (n + 1)) < 0.05


def test_polynomial_residual_at_zero_is_fitted_constant():
    y = np.linspace(-10, 10, 201)
    coeffs, _, _ = polynomial_residual_growth(2, y)
    at_zero = 0.0 - coeffs[0]
    # the residual n y^(n+1) - p(y) on the samples, from the fitted coefficients
    sample_residual = 2 * y**3 - np.vander(y, 3, increasing=True) @ coeffs
    idx = np.argmin(np.abs(y))
    assert sample_residual[idx] == pytest.approx(at_zero, abs=1e-8)
    assert np.isfinite(at_zero)


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_integrate(lambda y: -y, [1.0], dt=0.0, steps=5)
    with pytest.raises(ValueError):
        rk4_integrate(lambda y: -y, [1.0], dt=0.1, steps=-1)
