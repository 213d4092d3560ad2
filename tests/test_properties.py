"""Property tests of the logistic kernel over random dictionaries.

The whole-dictionary calls (conj_values, lift_derivatives, the order
check) must agree with the one-logistic and one-point forms they are
built from, the analytic Jacobian with finite differences, and the
sigmoid must keep its range and symmetry.  Join completion must be a
closure: idempotent, closed under join, originals first, and member for
member the result of the pairwise loop it replaced.  The closure forms,
computed for all logistics in one pass, must agree with their one-point
calls, and the bounds with the per-logistic forms they summarise.
Snapshot and model files must round-trip bit for bit, and saving what was
loaded must rewrite the same bytes.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sillkoop.closure import (
    SpannedField,
    compute_bounds,
    error_term_bilinear,
    error_term_linearization,
    hyperplane_distance,
    lie_approx_intermediate,
    lie_approx_linear,
    lie_derivative_exact,
)

from sillkoop.dictionary import (
    ConjLogistic,
    SillDictionary,
    check_total_order,
    conj_values,
    dominates,
    eval_conjunctive,
    join_completion,
    join_params,
    lift,
    lift_jacobian,
    stable_sigmoid,
)
from sillkoop.regression import (
    KoopmanModel,
    SnapshotSet,
    lift_derivatives,
    load_model,
    load_snapshots,
    save_model,
    save_snapshots,
)

EPS = np.finfo(float).eps
_settings = settings(max_examples=60, deadline=None, derandomize=True)
_coord = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _dictionary_and_points(draw):
    m = draw(st.integers(1, 4))
    n_logistic = draw(st.integers(1, 6))
    logistics = tuple(
        ConjLogistic(
            draw(st.lists(_coord, min_size=m, max_size=m)),
            draw(st.lists(st.floats(0.1, 20.0), min_size=m, max_size=m)),
        )
        for _ in range(n_logistic)
    )
    # None stands for a single length-m point, an int for a (P, m) batch
    batch = draw(st.one_of(st.none(), st.integers(1, 5)))
    shape = (m,) if batch is None else (batch, m)
    y = np.reshape(draw(st.lists(_coord, min_size=m, max_size=m * 5)), -1)
    y = np.resize(y, shape)
    D = np.resize(np.reshape(draw(st.lists(_coord, min_size=1, max_size=4)), -1), shape)
    return SillDictionary(m, logistics), y, D


@_settings
@given(_dictionary_and_points())
def test_conj_values_matches_each_logistic(case):
    d, y, _ = case
    vals = conj_values(y, d)
    assert vals.shape == y.shape[:-1] + (d.n_logistic,)
    for k, f in enumerate(d.logistics):
        np.testing.assert_array_equal(vals[..., k], eval_conjunctive(y, f))


@_settings
@given(_dictionary_and_points())
def test_lift_derivatives_rows_match_jacobian(case):
    d, y, D = case
    Y, D = np.atleast_2d(y), np.atleast_2d(D)
    rows = lift_derivatives(SnapshotSet(Y, D, "CT"), d)
    for yi, di, row in zip(Y, D, rows):
        # same products, possibly summed in another order
        np.testing.assert_allclose(row, lift_jacobian(yi, d) @ di, rtol=1e-12, atol=1e-12)


@_settings
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8))
def test_sigmoid_range_and_symmetry(zs):
    z = np.asarray(zs)
    s = stable_sigmoid(z)
    assert np.all((s >= 0.0) & (s <= 1.0))
    np.testing.assert_allclose(stable_sigmoid(-z), 1.0 - s, rtol=0.0, atol=2 * EPS)
    assert isinstance(stable_sigmoid(zs[0]), float)


@_settings
@given(_dictionary_and_points())
def test_lift_jacobian_matches_central_differences(case):
    d, y, _ = case
    h = 1e-5
    for yi in np.atleast_2d(y):
        steps = h * np.eye(d.m)
        fd = np.stack(
            [(lift(yi + e, d) - lift(yi - e, d)) / (2 * h) for e in steps], axis=1
        )
        np.testing.assert_allclose(lift_jacobian(yi, d), fd, rtol=0.0, atol=1e-6)


@st.composite
def _grid_dictionary(draw):
    # centers and steepnesses on a coarse grid, so ties (and the tie rule
    # of join_params) are common and completion stays at most 5^3 logistics
    m = draw(st.integers(1, 3))
    grid = st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=m, max_size=m)
    steep = st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=m, max_size=m)
    n_logistic = draw(st.integers(1, 5))
    return SillDictionary(
        m, tuple(ConjLogistic(draw(grid), draw(steep)) for _ in range(n_logistic))
    )


@_settings
@given(_grid_dictionary())
def test_join_completion_is_a_closure(d):
    completed = join_completion(d)
    assert completed.logistics[: d.n_logistic] == d.logistics
    members = {f.key() for f in completed.logistics}
    for f in completed.logistics:
        for g in completed.logistics:
            assert join_params(f, g).key() in members
    assert join_completion(completed).logistics == completed.logistics


@_settings
@given(_grid_dictionary())
def test_check_total_order_matches_pairwise_dominance(d):
    fs = d.logistics
    expected = tuple(
        (a, b)
        for a in range(len(fs))
        for b in range(a + 1, len(fs))
        if not dominates(fs[a], fs[b]) and not dominates(fs[b], fs[a])
    )
    result = check_total_order(d)
    assert result.incomparable_pairs == expected
    assert all(type(i) is int for pair in result.incomparable_pairs for i in pair)


def _pairwise_join_completion(d):
    # the loop join_completion replaced: every pass joins every pair
    funcs = list(d.logistics)
    seen = set(funcs)
    grew = True
    while grew:
        grew = False
        n = len(funcs)
        for a in range(n):
            for b in range(a + 1, n):
                j = join_params(funcs[a], funcs[b])
                if j not in seen:
                    funcs.append(j)
                    seen.add(j)
                    grew = True
    return SillDictionary(d.m, tuple(funcs))


@st.composite
def _field_and_points(draw):
    m = draw(st.integers(1, 3))
    n_logistic = draw(st.integers(1, 5))
    logistics = tuple(
        ConjLogistic(
            draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)),
            draw(st.lists(st.floats(0.5, 10.0), min_size=m, max_size=m)),
        )
        for _ in range(n_logistic)
    )
    size = m * n_logistic
    W = draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    n_points = draw(st.integers(1, 5))
    y = draw(st.lists(_coord, min_size=m * n_points, max_size=m * n_points))
    d = SillDictionary(m, logistics)
    return SpannedField(d, np.reshape(W, (m, n_logistic))), np.reshape(y, (n_points, m))


@_settings
@given(_grid_dictionary())
def test_join_completion_matches_pairwise_loop_on_grid(d):
    assert join_completion(d).to_dict() == _pairwise_join_completion(d).to_dict()


@_settings
@given(_field_and_points())
def test_join_completion_matches_pairwise_loop_on_uniform_centers(case):
    d = case[0].dictionary
    assert join_completion(d).to_dict() == _pairwise_join_completion(d).to_dict()


def test_join_completion_keeps_repeated_originals():
    f = ConjLogistic([0.0, 1.0], [2.0, 2.0])
    g = ConjLogistic([1.0, 0.0], [3.0, 1.0])
    d = SillDictionary(2, (f, g, f, join_params(f, g), g))
    completed = join_completion(d)
    assert completed.logistics[:5] == d.logistics
    assert completed.to_dict() == _pairwise_join_completion(d).to_dict()


_FORMS = (
    lie_derivative_exact,
    lie_approx_intermediate,
    lie_approx_linear,
    error_term_linearization,
    error_term_bilinear,
)


@_settings
@given(_field_and_points())
def test_lie_forms_batch_matches_single_points(case):
    sf, Y = case
    for fn in _FORMS:
        for l in range(sf.dictionary.n_logistic):
            batch = fn(l, sf, Y)
            assert batch.shape == (Y.shape[0],)
            for p, y in enumerate(Y):
                single = fn(l, sf, y)
                assert type(single) is float
                assert batch[p] == single


@_settings
@given(_field_and_points())
def test_compute_bounds_rebuilt_from_per_logistic_forms(case):
    sf, Y = case
    d, W = sf.dictionary, sf.W
    delta = hyperplane_distance(Y, d).min()
    assume(delta > 0)
    rep = compute_bounds(sf, Y, delta=delta)
    n = d.n_logistic
    exact, inter, linear, bilinear = (
        np.stack([fn(l, sf, Y) for l in range(n)], -1)
        for fn in (lie_derivative_exact, lie_approx_intermediate, lie_approx_linear,
                   error_term_bilinear)
    )
    gap = np.abs(exact - linear)
    l = int(np.argmax(gap.max(axis=0)))
    nu = np.abs(d.alpha[l][:, None] * W).sum()
    rebuilt = {
        "residual_max": gap[:, l].max(),
        "residual_mean": gap[:, l].mean(),
        "bar_B1": np.abs(exact - inter)[:, l].max(),
        "bar_B2": nu / 2.0 ** (d.m + 1),
        "tilde_B1": nu / 2.0 ** (2 * d.m + 1),
    }
    for name, value in rebuilt.items():
        assert getattr(rep, name) == pytest.approx(value, rel=1e-15, abs=0.0), name
    # the unweighted reference sum is exact + bilinear, up to the rounding
    # of that addition
    scale = np.abs(exact[:, l]) + np.abs(bilinear[:, l]) + np.abs(linear[:, l])
    tilde_B2 = np.abs(exact + bilinear - linear)[:, l].max()
    assert rep.tilde_B2 == pytest.approx(tilde_B2, rel=1e-15, abs=4 * EPS * scale.max())
    combined = min(rep.bar_B1 + rep.bar_B2, rep.tilde_B1 + rep.tilde_B2)
    assert rep.B == pytest.approx(combined, rel=1e-15, abs=0.0)


# every finite float, signed zeros and subnormals included
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@st.composite
def _snapshot_sets(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    Y = draw(arrays(float, shape, elements=_finite))
    D = draw(arrays(float, shape, elements=_finite))
    if draw(st.booleans()):
        return SnapshotSet(Y, D, "CT")
    return SnapshotSet(Y, D, "DT", dt=draw(_positive))


@_settings
@given(_snapshot_sets())
def test_snapshot_files_roundtrip_bit_exactly(s):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, man_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
        save_snapshots(s, csv_path, man_path)
        first = csv_path.read_bytes(), man_path.read_bytes()
        loaded = load_snapshots(csv_path, man_path)
        save_snapshots(loaded, csv_path, man_path)
        assert (csv_path.read_bytes(), man_path.read_bytes()) == first
    assert np.array_equal(_bits(loaded.Y), _bits(s.Y))
    assert np.array_equal(_bits(loaded.D), _bits(s.D))
    assert loaded.mode == s.mode
    assert loaded.dt is None if s.dt is None else _bits(loaded.dt) == _bits(s.dt)


@st.composite
def _models(draw):
    m, n_logistic = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mu = draw(arrays(float, (n_logistic, m), elements=_finite))
    alpha = draw(arrays(float, (n_logistic, m), elements=_positive))
    d = SillDictionary(m, tuple(map(ConjLogistic, mu, alpha)))
    K = draw(arrays(float, (d.size, d.size), elements=_finite))
    ridge = draw(st.one_of(st.just(0.0), _positive))
    return KoopmanModel(K, d, draw(st.sampled_from(["CT", "DT"])), ridge)


@_settings
@given(_models())
def test_model_file_roundtrips_bit_exactly(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        first = path.read_bytes()
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == first
    assert np.array_equal(_bits(loaded.K), _bits(model.K))
    for name in ("mu", "alpha"):
        assert np.array_equal(
            _bits(getattr(loaded.dictionary, name)), _bits(getattr(model.dictionary, name))
        )
    assert (loaded.mode, _bits(loaded.ridge)) == (model.mode, _bits(model.ridge))
