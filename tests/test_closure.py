from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sillkoop import cli, closure
from sillkoop.closure import (
    MAX_GRID_ROWS,
    ClosureReport,
    LieForms,
    SpannedField,
    closure_experiment,
    half_cell_shift,
    hyperplane_distance,
    lattice_grid,
    lie_forms,
    product_approx_decay,
    product_approx_error,
)
from sillkoop.dictionary import (
    ConjLogistic,
    SillDictionary,
    eval_conjunctive,
    grad_conjunctive,
    join_completion,
    load_dictionary,
    stable_sigmoid,
)
from sillkoop.errors import ClosureBoundError
from sillkoop.regression import SnapshotSet, fit_generator, residual


def _random_field(rng, m=None, n_logistic=None):
    m = m or int(rng.integers(1, 4))
    n_logistic = n_logistic or int(rng.integers(1, 4))
    d = SillDictionary(
        m,
        tuple(
            ConjLogistic(rng.uniform(-2, 2, m), rng.uniform(0.5, 5, m))
            for _ in range(n_logistic)
        ),
    )
    return SpannedField(d, rng.standard_normal((m, n_logistic)))


# a field whose centers sit at quarter-cell offsets of the 9-point lattice
# over [-2.8, 2.8] (cell 0.7), giving 0.175 clearance on both the training
# lattice and its half-cell shift, with alpha * clearance > 1 so the
# residual decays monotonically from scale 1 onward
def _reference_field():
    d = SillDictionary(
        2,
        (
            ConjLogistic([-1.225, 0.525], [7.0, 7.4]),
            ConjLogistic([0.175, -0.875], [7.6, 6.9]),
            ConjLogistic([-0.525, 1.225], [7.2, 7.8]),
        ),
    )
    W = np.array([[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]])
    return SpannedField(d, W)


_REFERENCE_BOX = [(-2.8, 2.8), (-2.8, 2.8)]


def test_spanned_field_shape_validation():
    d = SillDictionary(2, (ConjLogistic([0.0, 0.0], [1.0, 1.0]),))
    with pytest.raises(ValueError):
        SpannedField(d, np.zeros((2, 2)))


def test_spanned_field_evaluate_is_weighted_logistics():
    rng = np.random.default_rng(0)
    sf = _random_field(rng, m=2, n_logistic=3)
    y = rng.uniform(-2, 2, 2)
    expected = sum(
        sf.W[:, j] * eval_conjunctive(y, f) for j, f in enumerate(sf.dictionary.logistics)
    )
    np.testing.assert_allclose(sf.evaluate(y), expected, rtol=1e-14)


def test_product_error_self_pair_at_center():
    f = ConjLogistic([0.4], [3.0])
    assert product_approx_error(f, f, [0.4]) == pytest.approx(-0.25, rel=1e-14)


def test_product_error_saturates_above_both_centers():
    f = ConjLogistic([0.0, 0.0], [4.0, 4.0])
    g = ConjLogistic([1.0, 1.0], [4.0, 4.0])
    assert abs(product_approx_error(f, g, [30.0, 30.0])) < 1e-40


def test_product_error_saturates_below_a_center():
    f = ConjLogistic([0.0, 0.0], [4.0, 4.0])
    g = ConjLogistic([1.0, 1.0], [4.0, 4.0])
    assert abs(product_approx_error(f, g, [-30.0, 30.0])) < 1e-40


def test_product_error_range():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        f = ConjLogistic(rng.uniform(-2, 2, m), rng.uniform(0.5, 8, m))
        g = ConjLogistic(rng.uniform(-2, 2, m), rng.uniform(0.5, 8, m))
        e = product_approx_error(f, g, rng.uniform(-4, 4, m))
        assert -1.0 < e < 1.0


def test_hyperplane_distance_zero_on_plane():
    d = SillDictionary(2, (ConjLogistic([0.3, -1.0], [1.0, 1.0]),))
    assert hyperplane_distance([0.3, 5.0], d) == 0.0


def test_hyperplane_distance_minimum_gap():
    d = SillDictionary(
        2,
        (
            ConjLogistic([0.0, 1.0], [1.0, 1.0]),
            ConjLogistic([2.0, -1.0], [1.0, 1.0]),
        ),
    )
    # gaps: |0.5-0|, |0.5-2|, |1.8-1|, |1.8+1| -> minimum 0.5
    assert hyperplane_distance([0.5, 1.8], d) == pytest.approx(0.5)


def test_decay_sweep_errors_shrink():
    f = ConjLogistic([0.0], [2.0])
    g = ConjLogistic([1.0], [2.0])
    errors, slope, _ = product_approx_decay(f, g, [[-0.5], [0.5], [1.5]], [1, 2, 4, 8])
    assert np.all(np.diff(errors) < 0)
    assert slope < 0


def test_decay_sweep_monotone_envelope():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = int(rng.integers(1, 3))
        mu_f = rng.uniform(-2, 2, m)
        f = ConjLogistic(mu_f, rng.uniform(2, 5, m))
        g = ConjLogistic(mu_f + rng.uniform(0.3, 1.0, m), rng.uniform(2, 5, m))
        pair = SillDictionary(m, (f, g))
        pts = []
        while len(pts) < 20:
            cand = rng.uniform(-4, 4, (100, m))
            keep = hyperplane_distance(cand, pair) >= 0.5
            pts.extend(cand[keep][: 20 - len(pts)])
        errors, _, _ = product_approx_decay(f, g, np.asarray(pts), [1, 2, 4, 8])
        assert np.all(errors[1:] <= errors[:-1])


def test_decay_sweep_self_pair():
    f = ConjLogistic([0.0], [2.0])
    _, slope, _ = product_approx_decay(f, f, [[-0.6], [0.7]], [1, 2, 4, 8])
    assert slope < 0


def test_decay_sweep_rejects_incomparable_pair():
    f = ConjLogistic([1.0, 5.0], [2.0, 2.0])
    g = ConjLogistic([3.0, 2.0], [2.0, 2.0])
    with pytest.raises(ValueError, match="no dominance order"):
        product_approx_decay(f, g, [[0.0, 0.0]], [1, 2])


def test_decay_sweep_rejects_on_hyperplane_grid():
    f = ConjLogistic([0.0], [2.0])
    g = ConjLogistic([1.0], [2.0])
    with pytest.raises(ValueError, match="hyperplane"):
        product_approx_decay(f, g, [[0.0]], [1, 2])


def _single_logistic_field(alpha=4.0, w=1.5, mu=0.3):
    d = SillDictionary(1, (ConjLogistic([mu], [alpha]),))
    return SpannedField(d, np.array([[w]]))


def test_lie_forms_at_shared_center():
    alpha, w, mu = 4.0, 1.5, 0.3
    forms = lie_forms(_single_logistic_field(alpha, w, mu), [mu])
    assert forms.exact[0] == pytest.approx(alpha * w / 8, rel=1e-13)
    assert forms.intermediate[0] == pytest.approx(alpha * w / 4, rel=1e-13)
    assert forms.linear[0] == pytest.approx(alpha * w / 2, rel=1e-13)
    assert forms.linearization[0] == pytest.approx(alpha * w / 4, rel=1e-13)


def test_lie_forms_zero_field():
    rng = np.random.default_rng(5)
    d = SillDictionary(2, (ConjLogistic([0.0, 0.0], [2.0, 2.0]),))
    sf = SpannedField(d, np.zeros((2, 1)))
    forms = lie_forms(sf, rng.uniform(-2, 2, 2))
    for f in fields(LieForms):
        assert getattr(forms, f.name)[0] == 0.0, f.name


def test_lie_forms_saturate_far_above_centers():
    forms = lie_forms(_single_logistic_field(), [60.0])
    assert abs(forms.exact[0]) < 1e-60
    assert abs(forms.intermediate[0]) < 1e-60


def test_error_terms_vanish_far_below_centers():
    forms = lie_forms(_single_logistic_field(), [-60.0])
    assert abs(forms.linearization[0]) < 1e-60


def test_exact_lie_matches_chain_rule():
    rng = np.random.default_rng(6)
    for _ in range(200):
        sf = _random_field(rng)
        m = sf.dictionary.m
        y = rng.uniform(-3, 3, m)
        l = int(rng.integers(0, sf.dictionary.n_logistic))
        f = sf.dictionary.logistics[l]
        chain = float(grad_conjunctive(y, f) @ sf.evaluate(y))
        exact = lie_forms(sf, y).exact[l]
        assert abs(chain - exact) <= 1e-12 * max(abs(exact), abs(chain), 1.0)


def test_identity_chain_exact_vs_intermediate():
    # exact = intermediate + sum alpha w (1 - lambda) eps, term by term
    rng = np.random.default_rng(7)
    for _ in range(300):
        sf = _random_field(rng)
        d = sf.dictionary
        y = rng.uniform(-3, 3, d.m)
        l = int(rng.integers(0, d.n_logistic))
        f = d.logistics[l]
        lam = stable_sigmoid(f.alpha * (y - f.mu))
        corr = sum(
            f.alpha[i] * sf.W[i, j] * (1 - lam[i]) * product_approx_error(f, d.logistics[j], y)
            for i in range(d.m)
            for j in range(d.n_logistic)
        )
        forms = lie_forms(sf, y)
        lhs = forms.exact[l]
        rhs = forms.intermediate[l] + corr
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_identity_chain_linear_vs_intermediate():
    rng = np.random.default_rng(8)
    for _ in range(300):
        sf = _random_field(rng)
        y = rng.uniform(-3, 3, sf.dictionary.m)
        l = int(rng.integers(0, sf.dictionary.n_logistic))
        forms = lie_forms(sf, y)
        lhs = forms.linear[l]
        rhs = forms.intermediate[l] + forms.linearization[l]
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_compute_bounds_zero_weights():
    d = SillDictionary(2, (ConjLogistic([0.1, -0.2], [2.0, 2.0]),))
    sf = SpannedField(d, np.zeros((2, 1)))
    grid = [[1.0, 1.0], [-1.0, -1.0]]
    rep = closure_experiment(sf, grid, [1.0], holdout_grid=grid, delta=0.5)[0]
    assert rep.bar_B1 == rep.bar_B2 == rep.tilde_B1 == rep.tilde_B2 == rep.B == 0.0
    assert rep.residual_max == 0.0


def test_compute_bounds_reports_worst_function_grid_maxima():
    sf = _reference_field()
    train = lattice_grid(_REFERENCE_BOX, 9)
    pts = half_cell_shift(_REFERENCE_BOX, 9)
    rep = closure_experiment(sf, train, [1.0], holdout_grid=pts, delta=0.17)[0]
    forms = lie_forms(sf, pts)
    gaps = np.abs(forms.exact - forms.linear).max(axis=0)
    inter_gaps = np.abs(forms.exact - forms.intermediate).max(axis=0)
    worst = int(np.argmax(gaps))
    # the residual is the held-out residual of the fit over the completed dictionary
    completed = join_completion(sf.dictionary)
    model = fit_generator(SnapshotSet(train, sf.evaluate(train), "CT"), completed)
    fitted = np.abs(residual(model, SnapshotSet(pts, sf.evaluate(pts), "CT")))
    assert rep.residual_max == pytest.approx(fitted.max(), rel=1e-15)
    assert rep.bar_B1 == pytest.approx(inter_gaps[worst], rel=1e-15)
    assert rep.B == pytest.approx(
        min(rep.bar_B1 + rep.bar_B2, rep.tilde_B1 + rep.tilde_B2), rel=1e-15
    )


def test_bound_refusal_names_the_logistic_furthest_over_its_limit():
    sf = _reference_field()
    pts = half_cell_shift(_REFERENCE_BOX, 9)
    forms = lie_forms(sf, pts)
    d = sf.dictionary
    nu_sum = np.abs(d.alpha[:, :, None] * sf.W).sum(axis=(1, 2))
    limit = np.abs(forms.exact - forms.intermediate).max(axis=0) + nu_sum / 2.0 ** (d.m + 1)
    residuals = np.zeros((len(pts), 1 + d.m + d.n_logistic))
    # logistics 0 and 1 are both over their limits, logistic 1 by more
    residuals[0, 1 + d.m : 1 + d.m + 2] = [2.0 * limit[0], 3.0 * limit[1]]
    with pytest.raises(ClosureBoundError, match="^logistic 1: "):
        closure._bounds(sf, forms, residuals, 1.0)
    # zero weights give every logistic a limit of 0: no divide warning
    zero = SpannedField(d, np.zeros_like(sf.W))
    with pytest.raises(ClosureBoundError, match="^logistic 0: .* bound 0$"):
        closure._bounds(zero, lie_forms(zero, pts), residuals, 1.0)


def test_compute_bounds_decrease_with_steepness_on_fixed_grid():
    sf = _reference_field()
    train = lattice_grid(_REFERENCE_BOX, 9)
    pts = half_cell_shift(_REFERENCE_BOX, 9)
    b1, t2 = [], []
    for rep in closure_experiment(sf, train, [1, 2, 4, 8], holdout_grid=pts, delta=0.17):
        b1.append(rep.bar_B1)
        t2.append(rep.tilde_B2)
    assert np.all(np.diff(b1) < 0)
    assert np.all(np.diff(t2) < 0)


def _one_point_report(sf, point):
    return closure_experiment(sf, [point], [1.0], holdout_grid=[point], delta=0.5)[0]


def test_bound_denominators_scale_with_m():
    # same nu sum, one vs two measurement dimensions
    d1 = SillDictionary(1, (ConjLogistic([0.25], [2.0]),))
    rep1 = _one_point_report(SpannedField(d1, [[1.0]]), [2.0])
    d2 = SillDictionary(2, (ConjLogistic([0.25, 0.25], [2.0, 2.0]),))
    rep2 = _one_point_report(SpannedField(d2, [[1.0], [0.0]]), [2.0, 2.0])
    assert rep1.bar_B2 == pytest.approx(2.0 / 4.0)  # nu sum 2 over 2^(m+1) = 4
    assert rep2.bar_B2 == pytest.approx(2.0 / 8.0)
    assert rep1.tilde_B1 == pytest.approx(2.0 / 8.0)
    assert rep2.tilde_B1 == pytest.approx(2.0 / 32.0)


def test_compute_bounds_rejects_near_hyperplane_grid():
    sf = _single_logistic_field(mu=0.3)
    with pytest.raises(ValueError, match="hyperplane"):
        closure_experiment(sf, [[1.0]], [1.0], holdout_grid=[[0.3005]], delta=1e-2)
    with pytest.raises(ValueError, match="delta must be positive"):
        closure_experiment(sf, [[1.0]], [1.0], holdout_grid=[[1.0]], delta=0.0)


def test_compute_bounds_rejects_empty_grid():
    sf = _single_logistic_field()
    with pytest.raises(ValueError):
        closure_experiment(sf, [[1.0]], [1.0], holdout_grid=np.zeros((0, 1)), delta=0.1)
    with pytest.raises(ValueError, match="grid must be a list of length-1 points"):
        closure_experiment(sf, [[1.0, 2.0]], [1.0], holdout_grid=[[1.0]], delta=0.1)


def test_closure_experiment_residual_decays():
    sf = _reference_field()
    train = lattice_grid(_REFERENCE_BOX, 9)
    held = half_cell_shift(_REFERENCE_BOX, 9)
    reports = closure_experiment(
        sf, train, [1, 2, 4, 8, 64], holdout_grid=held, delta=0.17
    )
    res = [r.residual_max for r in reports]
    assert np.all(np.diff(res[:4]) <= 0)
    assert res[4] < 1e-2 * res[0]
    for r in reports:
        assert r.B == pytest.approx(
            min(r.bar_B1 + r.bar_B2, r.tilde_B1 + r.tilde_B2), rel=1e-15
        )
        # the fitted residual stays within the analytic budget
        assert r.residual_max <= r.bar_B1 + r.bar_B2


def test_closure_experiment_flags_bound_violation():
    # under-steep dictionary on a coarse lattice: at scale 4 the fit's
    # held-out residual overshoots the per-function analytic budget
    d = SillDictionary(
        2,
        (
            ConjLogistic([-1.40, 0.28], [4.6, 4.4]),
            ConjLogistic([0.28, -0.84], [5.0, 4.3]),
            ConjLogistic([-0.28, 0.84], [4.4, 4.8]),
        ),
    )
    sf = SpannedField(d, np.array([[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]]))
    box = [(-2.8, 2.8), (-2.8, 2.8)]
    train = lattice_grid(box, 6)
    held = half_cell_shift(box, 6)
    with pytest.raises(ClosureBoundError, match="exceeds"):
        closure_experiment(sf, train, [4], holdout_grid=held, delta=0.2)


def test_closure_experiment_checks_holdout_clearance_before_fitting(monkeypatch):
    # scaling keeps the centers, so a holdout point within delta of a center
    # hyperplane is refused before any scale is completed or fitted
    def fitted(*args, **kwargs):
        raise AssertionError("fitted before the holdout clearance was checked")

    monkeypatch.setattr(closure, "join_completion", fitted)
    monkeypatch.setattr(closure, "solve_koopman_ls", fitted)
    train = lattice_grid(_REFERENCE_BOX, 9)
    held = half_cell_shift(_REFERENCE_BOX, 9)  # 0.175 from the nearest center
    with pytest.raises(ValueError, match="center hyperplane"):
        closure_experiment(_reference_field(), train, [1, 2], holdout_grid=held, delta=0.2)


def test_steepness_times_scale_past_float_range_is_refused():
    # refused before the first scale, so no scaled steepness overflows
    train = lattice_grid(_REFERENCE_BOX, 9)
    held = half_cell_shift(_REFERENCE_BOX, 9)
    with pytest.raises(ValueError, match="beyond the float range"):
        closure_experiment(_reference_field(), train, [1, 1e308], holdout_grid=held, delta=0.17)
    f, g = ConjLogistic([0.0], [1e308]), ConjLogistic([1.0], [3.0])
    with pytest.raises(ValueError, match="beyond the float range"):
        product_approx_decay(f, g, [[-0.5], [0.5], [1.5]], [1, 2])


def test_closure_experiment_zero_field():
    d = SillDictionary(2, (ConjLogistic([0.25, 0.25], [2.0, 2.0]),))
    sf = SpannedField(d, np.zeros((2, 1)))
    box = [(-2, 2), (-2, 2)]
    reports = closure_experiment(
        sf, lattice_grid(box, 5), [1, 2], holdout_grid=half_cell_shift(box, 5), delta=0.2
    )
    for r in reports:
        assert r.residual_max < 1e-12
        assert r.B == 0.0


def _seeded_lattice_field(seed):
    """8 logistics at distinct quarter-cell offsets of the 13^2 lattice.

    alpha ~ U(6, 8) per coordinate and W ~ U(-0.8, 0.8), built like the
    benchmark's m = 2 closure config.
    """
    rng = np.random.default_rng(seed)
    cell = 5.6 / 12
    picks = rng.choice(12 * 12, size=8, replace=False)
    mu = -2.8 + cell * (np.stack(np.unravel_index(picks, (12, 12)), axis=1) + 0.25)
    alpha = rng.uniform(6.0, 8.0, size=(8, 2))
    W = rng.uniform(-0.8, 0.8, size=(2, 8))
    d = SillDictionary(2, tuple(ConjLogistic(c, a) for c, a in zip(mu, alpha)))
    return SpannedField(d, W)


# Outcomes of the per-function bound check over scales 1-64 at ridge 0.
# Seed 4 fails it: its fit is ill-conditioned and generalises badly between
# lattice points.  A change of outcome here is a change in the solver or
# the bounds, and has to be explained, not re-seeded.
@pytest.mark.parametrize(
    "seed, exceeds", [(0, False), (1, False), (2, False), (3, False), (4, True)]
)
def test_seeded_random_fields_keep_their_bound_check_outcome(seed, exceeds):
    def run():
        return closure_experiment(
            _seeded_lattice_field(seed),
            lattice_grid(_REFERENCE_BOX, 13),
            [1, 2, 4, 8, 64],
            ridge=0.0,
            delta=0.96 * (5.6 / 12) / 4,
            holdout_grid=half_cell_shift(_REFERENCE_BOX, 13),
        )

    if exceeds:
        with pytest.raises(ClosureBoundError, match="exceeds"):
            run()
    else:
        assert len(run()) == 5


def test_lattice_grid_shape_and_shift():
    box = [(-1.0, 1.0), (0.0, 2.0)]
    g = lattice_grid(box, 3)
    assert g.shape == (9, 2)
    assert g[:, 0].min() == -1.0 and g[:, 0].max() == 1.0
    shifted = half_cell_shift(box, 3)
    np.testing.assert_allclose(shifted - g, 0.5, rtol=1e-15)


def test_half_cell_shift_checks_the_count_before_dividing_by_it():
    # one point per dimension has no cell to halve: refused as bad input,
    # not first reported as a divide-by-zero warning
    with pytest.raises(ValueError, match="at least two points"):
        half_cell_shift([(0.0, 1.0), (0.0, 2.0)], 1)


def test_closure_report_invariant():
    with pytest.raises(ValueError):
        ClosureReport(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 2)
    rep = ClosureReport(1.0, 2.0, 0.5, 1.0, 0.0, 0.0, 1.0, 2)
    assert rep.B == 1.5 and rep.to_dict()["B"] == 1.5


def test_decay_sweep_rejects_bad_scales():
    f = ConjLogistic([0.0], [2.0])
    g = ConjLogistic([1.0], [2.0])
    grid = [[-0.5], [0.5], [1.5]]
    with pytest.raises(ValueError):
        product_approx_decay(f, g, grid, [4, 2, 1])
    with pytest.raises(ValueError):
        product_approx_decay(f, g, grid, [1.0])
    with pytest.raises(ValueError):
        product_approx_decay(f, g, grid, [-1, 2])


def test_lattice_grid_validation():
    with pytest.raises(ValueError):
        lattice_grid([(1.0, 0.0)], 3)
    with pytest.raises(ValueError, match=r"list of \(lo, hi\) pairs"):
        lattice_grid([(0.0, 1.0, 2.0)], 3)
    with pytest.raises(ValueError):
        lattice_grid([(0.0, 1.0)], 1)


def test_lattice_grid_takes_an_integral_float_count():
    # as SillDictionary takes m = 2.0; np.linspace refused the float
    box = [(-1.0, 1.0), (0.0, 2.0)]
    assert np.array_equal(lattice_grid(box, 9.0), lattice_grid(box, 9))
    assert np.array_equal(half_cell_shift(box, 9.0), half_cell_shift(box, 9))


@pytest.mark.parametrize("count", [9.5, "9", True, float("nan")], ids=repr)
@pytest.mark.parametrize("make", [lattice_grid, half_cell_shift], ids=lambda f: f.__name__)
def test_lattice_grid_refuses_a_count_that_is_not_a_whole_number(monkeypatch, make, count):
    def allocated(*args, **kwargs):
        raise AssertionError("lattice allocated before its count was checked")

    monkeypatch.setattr(np, "linspace", allocated)
    with pytest.raises(ValueError, match="whole number"):
        make([(-1.0, 1.0)], count)


def test_lattice_grid_caps_rows_before_allocating(monkeypatch):
    def allocated(*args, **kwargs):
        raise AssertionError("lattice allocated before its size was checked")

    monkeypatch.setattr(np, "meshgrid", allocated)
    side = int(np.sqrt(MAX_GRID_ROWS)) + 1
    with pytest.raises(ValueError, match="above the limit"):
        lattice_grid([(0.0, 1.0), (0.0, 1.0)], side)
    with pytest.raises(ValueError, match="above the limit"):
        half_cell_shift([(0.0, 1.0)] * 3, 101)
    with pytest.raises(ValueError, match="above the limit"):
        lattice_grid([(0.0, 1.0)] * 3000, 2)


def test_sweep_load_and_completion_build_no_conjlogistic(tmp_path, monkeypatch):
    # a dictionary is its arrays: reading the benchmark's CLOSURE_M2 config,
    # its closure sweep, loading the benchmark's 12-logistic dictionary file
    # and join-completing it create no ConjLogistic object
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import CLOSURE_M2, generator_pipeline

    generator_pipeline(tmp_path, 11, "full")  # writes dictionary.json
    box, points, delta = (CLOSURE_M2["grid"][k] for k in ("box", "points_per_dim", "delta"))
    train, held = lattice_grid(box, points), half_cell_shift(box, points)
    built = []
    original = ConjLogistic.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ConjLogistic, "__post_init__", counted)

    def count(fn, *args, **kwargs):
        built.clear()
        out = fn(*args, **kwargs)
        return len(built), out

    counts = {}
    counts["config"], sf = count(cli._spanned_field_from, CLOSURE_M2)
    counts["closure_experiment"], reports = count(
        closure_experiment, sf, train, CLOSURE_M2["alpha_scales"],
        ridge=CLOSURE_M2["ridge"], delta=delta, holdout_grid=held,
    )
    counts["load_dictionary"], d = count(load_dictionary, tmp_path / "dictionary.json")
    counts["join_completion"], completed = count(join_completion, d)
    assert counts == dict.fromkeys(
        ("config", "closure_experiment", "load_dictionary", "join_completion"), 0
    )
    assert (len(reports), d.n_logistic, completed.n_logistic) == (5, 12, 44)
