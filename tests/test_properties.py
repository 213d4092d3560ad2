"""Property tests of the logistic kernel over random dictionaries.

The whole-dictionary calls (conj_values, the CT target of _system, the
order check) must agree with the one-logistic and one-point forms they are
built from, the analytic Jacobian with finite differences, and the
sigmoid must keep its range and symmetry and stay within 2 ulp of the
exact logistic.  Join completion must be a closure: idempotent, closed
under join, originals first, member for member the result of the
pairwise loop it replaced, and row for row, in order, the float
completion that the index completion replaced; join_params, the column
join of a pair, must be the float join rule.  The sigmoid-table kernel
(conj_values, grad_conjunctive, every closure form) must equal per-factor
products bit for bit.  The closure forms,
computed for all logistics in one pass, must agree bit for bit with their
one-point calls, and the bounds with the per-logistic forms they summarise.
The regression pair of a snapshot batch must be the written-out lift and
target bit for bit, and a fit's training report the residual of its own
model.  Snapshot and model files must round-trip bit for bit, and saving what was
loaded must rewrite the same bytes; a snapshot file holds the 17-digit
format of each value, signed zeros, subnormals and the largest floats
included.  The Monte Carlo tables read every row off one sample path:
within one block a row of the conjunctive table is the one-row estimate,
and the linear error term at m = 2k is the bilinear term at m = k.  The
one-SVD least-squares solve must match the lstsq and normal-equation
solvers it replaced on well-conditioned lifts, and on rank-deficient lifts
return the minimum-norm solution, zero on the null space of the lift.
The numpy matrix exponential must match scipy's on
dense, nilpotent and stiff matrices, and give exactly the identity at 0.
Doubling the measured derivatives doubles a fitted generator bit for bit,
and doubling the field weights doubles every Lie-derivative form;
permuting the dictionary permutes the generator, to a measured tolerance.
A closure scale evaluates each grid from one table of the completed
dictionary: join completion keeps the field dictionary's table, the
batch's values are each public evaluation's bit for bit, and the reports
are those of the written-out fit, residual and forms.
"""

import json
import tempfile
from dataclasses import fields
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sillkoop.closure import (
    LieForms,
    SpannedField,
    _batch,
    _bounds,
    _check_clearance,
    _join_index,
    closure_experiment,
    half_cell_shift,
    hyperplane_distance,
    lattice_grid,
    lie_forms,
)

from sillkoop.dictionary import (
    ConjLogistic,
    SillDictionary,
    _gather,
    _groups,
    _product,
    _sigmoid_table,
    check_total_order,
    conj_values,
    dominates,
    eval_conjunctive,
    grad_conjunctive,
    join_completion,
    join_params,
    lift,
    lift_jacobian,
    stable_sigmoid,
)
from sillkoop.errors import ClosureBoundError
from sillkoop.regression import (
    _THETA13,
    KoopmanModel,
    SnapshotSet,
    _expm,
    _fit,
    _system,
    fit_edmd,
    fit_generator,
    load_model,
    load_snapshots,
    residual,
    save_model,
    save_snapshots,
    solve_koopman_ls,
)
from sillkoop.stats import expected_error_rates, mc_conjunctive_table

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
    rows = _system(SnapshotSet(Y, D, "CT"), d)[1]
    for yi, di, row in zip(Y, D, rows):
        # same products, possibly summed in another order
        np.testing.assert_allclose(row, lift_jacobian(yi, d) @ di, rtol=1e-12, atol=1e-12)


def _reference_system(s, d):
    """The (lift, target) pair written out from lift and the gradients.

    Each row is assembled by slice assignment; the lift's logistic columns
    come from conj_values and the CT target's from grad_conjunctive, each
    with its own sigmoid table.
    """

    def rows(first, y, rest):
        out = np.empty(y.shape[:-1] + (d.size,))
        out[..., 0] = first
        out[..., 1 : 1 + d.m] = y
        out[..., 1 + d.m :] = rest
        return out

    G = rows(1.0, s.Y, conj_values(s.Y, d))
    if s.mode == "DT":
        return G, rows(1.0, s.D, conj_values(s.D, d))
    return G, rows(0.0, s.D, np.einsum("rkm,rm->rk", grad_conjunctive(s.Y, d), s.D))


@st.composite
def _dictionary_and_snapshots(draw):
    d, y, D = draw(_dictionary_and_points())
    Y, D = np.atleast_2d(y), np.atleast_2d(D)
    mode = draw(st.sampled_from(["CT", "DT"]))
    return d, SnapshotSet(Y, D, mode, dt=0.1 if mode == "DT" else None)


def _wide_case(mode):
    # a join-completed dictionary and a few hundred snapshots, so the
    # solve and the residual run through full-size matrix products
    rng = np.random.default_rng(7)
    mu, alpha = rng.uniform(-2.0, 2.0, (8, 2)), rng.uniform(3.0, 6.0, (8, 2))
    d = join_completion(SillDictionary(2, tuple(map(ConjLogistic, mu, alpha))))
    Y, D = rng.uniform(-3.0, 3.0, (2, 300, 2))
    return d, SnapshotSet(Y, D, mode, dt=0.1 if mode == "DT" else None)


@_settings
@given(_dictionary_and_snapshots())
@example(_wide_case("CT"))
@example(_wide_case("DT"))
def test_system_is_the_written_out_lift_and_target_bit_for_bit(case):
    d, s = case
    G, A = _system(s, d)
    G_ref, A_ref = _reference_system(s, d)
    assert np.array_equal(G, G_ref) and np.array_equal(G, lift(s.Y, d))
    assert np.array_equal(A, A_ref)
    if s.mode == "CT":  # a second call gives the same bits
        assert np.array_equal(A, _system(s, d)[1])


@_settings
@given(_dictionary_and_snapshots(), st.sampled_from([0.0, 1e-8]))
@example(_wide_case("CT"), 0.0)
@example(_wide_case("DT"), 1e-8)
def test_fit_report_is_the_residual_of_its_model_bit_for_bit(case, ridge):
    d, s = case
    model, R = _fit(s, d, ridge, s.mode)
    assert np.array_equal(R, residual(model, s))
    fit = fit_generator if s.mode == "CT" else fit_edmd
    assert np.array_equal(fit(s, d, ridge).K, model.K)


# the m = 3 closure field of the benchmark (CLOSURE_M3): eight logistics,
# its training lattice and its half-cell holdout on [-2.8, 2.8]^3
_M3_MU = [
    [1.088889, -2.022222, -1.4], [-1.4, -0.777778, -0.155556],
    [-2.022222, -2.022222, -0.155556], [-0.777778, -1.4, 1.088889],
    [0.466667, 0.466667, 1.711111], [-0.777778, -2.022222, -0.777778],
    [-1.4, 1.088889, -0.155556], [-2.022222, 0.466667, 0.466667],
]
_M3_ALPHA = [
    [7.6, 7.2, 6.2], [7.0, 6.3, 7.5], [7.0, 6.9, 7.2], [7.9, 6.6, 7.3],
    [6.0, 7.9, 6.6], [7.8, 7.2, 6.9], [7.4, 6.7, 6.2], [7.9, 6.4, 7.3],
]
_M3 = SillDictionary(3, tuple(map(ConjLogistic, _M3_MU, _M3_ALPHA)))
_M3_BOX = [(-2.8, 2.8)] * 3
# weights 0 or of magnitude at least 1/64: on the M3 box every value the
# fit and the forms compute from them stays far from overflow and from the
# subnormal range, so doubling each is exact
_m3_weights = arrays(
    float,
    (3, 8),
    elements=st.one_of(st.just(0.0), st.floats(1 / 64, 1.0), st.floats(-1.0, -1 / 64)),
)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_m3_weights)
def test_doubling_the_derivatives_doubles_the_generator_bit_for_bit(W):
    completed = join_completion(_M3)
    Y = lattice_grid(_M3_BOX, 10)
    D = SpannedField(_M3, W).evaluate(Y)
    for ridge in (0.0, 1e-8):
        K = fit_generator(SnapshotSet(Y, D, "CT"), completed, ridge).K
        K2 = fit_generator(SnapshotSet(Y, 2.0 * D, "CT"), completed, ridge).K
        assert np.array_equal(K2, 2.0 * K), ridge


# CLOSURE_M3's own weights, its completed dictionary and its CT snapshots
# on the training lattice
_M3_W = np.array(
    [
        [-0.32, 0.39, 0.36, -0.45, 0.53, 0.25, 0.29, 0.51],
        [-0.11, 0.41, 0.61, -0.64, 0.56, -0.17, -0.03, -0.57],
        [0.32, -0.33, 0.59, -0.36, 0.1, -0.16, 0.18, -0.49],
    ]
)
_M3_COMPLETED = join_completion(_M3)
_M3_Y = lattice_grid(_M3_BOX, 10)
_M3_SNAPSHOTS = SnapshotSet(_M3_Y, SpannedField(_M3, _M3_W).evaluate(_M3_Y), "CT")


# The SVD sees the lift's columns in another order, so the permuted K is
# the permuted original only up to rounding.  Over these 20 examples the
# worst gap was 1.6e-11 of max |K| (at ridge 1e-8, with 1 and 2 BLAS
# threads alike); the tolerance is 10x that, 1.6e-10.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.permutations(range(_M3_COMPLETED.n_logistic)), st.sampled_from([0.0, 1e-8]))
def test_permuting_the_dictionary_permutes_the_generator(perm, ridge):
    d = _M3_COMPLETED
    permuted = SillDictionary(d.m, tuple(d.logistics[k] for k in perm))
    # lifted coordinate q[i] of the original is coordinate i of the permuted
    q = np.concatenate([np.arange(1 + d.m), 1 + d.m + np.asarray(perm)])
    K = fit_generator(_M3_SNAPSHOTS, d, ridge).K
    K_perm = fit_generator(_M3_SNAPSHOTS, permuted, ridge).K
    assert np.abs(K_perm - K[np.ix_(q, q)]).max() <= 1.6e-10 * np.abs(K).max()


@_settings
@given(_m3_weights)
def test_doubling_the_weights_doubles_every_lie_form_bit_for_bit(W):
    held = half_cell_shift(_M3_BOX, 10)
    one = lie_forms(SpannedField(_M3, W), held)
    two = lie_forms(SpannedField(_M3, 2.0 * W), held)
    for f in fields(LieForms):
        assert np.array_equal(getattr(two, f.name), 2.0 * getattr(one, f.name)), f.name


@_settings
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8))
def test_sigmoid_range_and_symmetry(zs):
    z = np.asarray(zs)
    s = stable_sigmoid(z)
    assert np.all((s >= 0.0) & (s <= 1.0))
    np.testing.assert_allclose(stable_sigmoid(-z), 1.0 - s, rtol=0.0, atol=2 * EPS)
    assert isinstance(stable_sigmoid(zs[0]), float)


def _exact_sigmoid(z: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return 1 / (1 + (-Decimal(z)).exp())


@_settings
@given(st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40))
@example([-700.0, -40.0, -36.8, -1.0, 0.0, 1.0, 40.0, 700.0])
def test_sigmoid_within_two_ulp_of_exact_logistic(zs):
    # relative accuracy everywhere on [-700, 700], the far left tail
    # included: a 0.5 (1 + tanh(z / 2)) kernel rounds sigma(-40) ~ 4e-18 to
    # 0.0; the reference is the logistic correctly rounded at 40 digits,
    # since 1 / (1 + math.exp(-z)) carries ~1.2 ulp of error itself
    batch = stable_sigmoid(np.asarray(zs))
    for z, s in zip(zs, batch):
        exact = _exact_sigmoid(z)
        for got in (s, stable_sigmoid(z)):
            assert abs(Decimal(float(got)) - exact) <= Decimal(2 * EPS) * exact


@_settings
@given(
    arrays(
        np.float64,
        st.sampled_from([(), (1,), (3, 5)]) | st.tuples(st.integers(0, 40)),
        elements=st.floats(-800.0, 800.0)
        | st.floats(709.7, 709.9)
        | st.floats(-709.9, -709.7)
        | st.just(np.nan),
    )
)
@example(np.array([-800.0, -709.79, -709.78, -709.77, 0.0, 709.78, 800.0, np.nan]))
@example(np.array(-709.78))
def test_sigmoid_in_place_is_bit_equal_to_fresh_result(z):
    # out=z rewrites the draws the Monte Carlo loop no longer needs; the
    # same steps run in the same order, so no bit may move
    before = z.copy()
    fresh = stable_sigmoid(z)
    assert np.array_equal(z, before, equal_nan=True)
    got = stable_sigmoid(z, out=z)
    if z.ndim == 0:
        assert isinstance(fresh, float) and isinstance(got, float)
    else:
        assert got is z
    assert np.array_equal(got, fresh, equal_nan=True)


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
    members = set(completed.logistics)
    for f in completed.logistics:
        for g in completed.logistics:
            assert join_params(f, g) in members
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
    assert result == expected
    assert all(type(i) is int for pair in result for i in pair)


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


# The float completion that rank completion replaced, kept verbatim: rows
# of (mu, alpha), the join rule on floats, np.unique(axis=0) as the key.
def _float_join(mu_f, alpha_f, mu_g, alpha_g):
    tie = np.maximum(alpha_f, alpha_g)
    alpha = np.where(mu_g > mu_f, alpha_g, np.where(mu_f > mu_g, alpha_f, tie))
    return np.maximum(mu_f, mu_g), alpha


def _float_join_completion_rows(d):
    m = d.m
    rows = np.hstack([d.mu, d.alpha])
    fresh = 0
    while fresh < len(rows):
        n = len(rows)
        a, b = np.triu_indices(n, 1)
        a, b = a[b >= fresh], b[b >= fresh]
        joined = np.hstack(_float_join(rows[a, :m], rows[a, m:], rows[b, :m], rows[b, m:]))
        _, first = np.unique(np.vstack([rows, joined]), axis=0, return_index=True)
        rows = np.vstack([rows, joined[np.sort(first[first >= n]) - n]])
        fresh = n
    return rows


def _assert_rank_completion_is_float_completion(d):
    completed = join_completion(d)
    # same rows in the same order; -0.0 and 0.0 are one center to both
    np.testing.assert_array_equal(
        np.hstack([completed.mu, completed.alpha]), _float_join_completion_rows(d)
    )
    # the originals, repeats and signed zeros included, keep their bits
    assert np.array_equal(_bits(completed.mu[: d.n_logistic]), _bits(d.mu))
    assert completed.logistics[: d.n_logistic] == d.logistics


@st.composite
def _tied_dictionary(draw):
    # few centers (both zeros among them) and steepnesses, so tied centers
    # with distinct steepnesses are common; originals may repeat
    m = draw(st.integers(1, 4))
    centers = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    steep = st.sampled_from([1.0, 2.0, 3.0])
    pool = [
        ConjLogistic(
            draw(st.lists(centers, min_size=m, max_size=m)),
            draw(st.lists(steep, min_size=m, max_size=m)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return SillDictionary(m, tuple(pool[k] for k in picks))


# -0.0 and 0.0 with equal and with distinct steepnesses: the join of the
# first two equals the first as floats, so it is no new member
_SIGNED_ZEROS = SillDictionary(
    2,
    (
        ConjLogistic([-0.0, 1.0], [2.0, 1.0]),
        ConjLogistic([0.0, -1.0], [2.0, 1.0]),
        ConjLogistic([1.0, -0.0], [3.0, 1.0]),
        ConjLogistic([0.0, 0.0], [1.0, 1.0]),
        ConjLogistic([-0.0, 1.0], [2.0, 1.0]),
    ),
)
_TIED_CENTERS = SillDictionary(
    2,
    (
        ConjLogistic([0.5, 0.5], [1.0, 3.0]),
        ConjLogistic([0.5, 0.5], [3.0, 1.0]),
        ConjLogistic([0.5, -1.0], [2.0, 2.0]),
        ConjLogistic([1.0, 0.5], [2.0, 2.0]),
    ),
)


@_settings
@given(_tied_dictionary())
@example(_SIGNED_ZEROS)
@example(_TIED_CENTERS)
def test_rank_completion_matches_float_completion(d):
    _assert_rank_completion_is_float_completion(d)


@_settings
@given(_tied_dictionary())
@example(_SIGNED_ZEROS)
@example(_TIED_CENTERS)
def test_join_params_is_the_float_join_rule(d):
    # the column join of every ordered pair, compared as floats
    for f in d.logistics:
        for g in d.logistics:
            mu, alpha = _float_join(f.mu, f.alpha, g.mu, g.alpha)
            joined = join_params(f, g)
            np.testing.assert_array_equal(joined.mu, mu)
            np.testing.assert_array_equal(joined.alpha, alpha)


# join_completion as it was when every dictionary was built from
# ConjLogistic objects: the same column-row passes, then one object per new
# logistic, drawn from the original table
def _object_join_completion(d):
    n0, rows, fresh = d.n_logistic, d.columns, 0
    while fresh < len(rows):
        n = len(rows)
        a, b = np.triu_indices(n, 1)
        a, b = a[b >= fresh], b[b >= fresh]
        joined = np.maximum(rows[a], rows[b])
        order, opens = _groups(np.vstack([rows, joined]))
        first = order[opens]
        rows = np.vstack([rows, joined[np.sort(first[first >= n]) - n]])
        fresh = n
    new = map(ConjLogistic, d.table_mu[rows[n0:]], d.table_alpha[rows[n0:]])
    return SillDictionary(d.m, d.logistics + tuple(new))


def _assert_same_dictionary(got, want):
    # every array equal and read-only, signed zeros included
    assert got.m == want.m
    for name in ("mu", "alpha", "table_mu", "table_alpha", "table_coord", "columns"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and not a.flags.writeable
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
    assert got.logistics == want.logistics


@_settings
@given(_tied_dictionary(), st.sampled_from([1 / 64, 64.0]) | st.floats(1 / 64, 64.0))
@example(_SIGNED_ZEROS, 1 / 64)
@example(_TIED_CENTERS, 64.0)
def test_array_built_dictionary_is_the_object_built_one(d, s):
    # scaling, join completion and a JSON round trip build a dictionary from
    # its arrays; the same dictionary built from ConjLogistic objects has
    # the same bits in every array
    _assert_same_dictionary(d.scaled(s), SillDictionary(d.m, [f.scaled(s) for f in d.logistics]))
    _assert_same_dictionary(join_completion(d), _object_join_completion(d))
    obj = d.to_dict()
    objects = [ConjLogistic(e["mu"], e["alpha"]) for e in obj["logistics"]]
    _assert_same_dictionary(SillDictionary.from_dict(obj), SillDictionary(d.m, objects))
    rows = [{"mu": f.mu.tolist(), "alpha": f.alpha.tolist()} for f in d.logistics]
    assert json.dumps(obj) == json.dumps({"m": d.m, "logistics": rows})
    refused = [0.0, -s, np.nan]
    if d.alpha.max() > 1.0:
        refused.append(np.finfo(float).max)  # overflows that steepness
    for bad in refused:
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            d.scaled(bad)


def test_rank_completion_without_an_int64_key():
    # a table whose size product is 2^64, past int64: the one grouping
    # path must complete it
    m = 64
    mu = np.zeros((3, m))
    mu[0, ::2] = mu[1, 1::2] = mu[2, :32] = 1.0
    d = SillDictionary(m, tuple(ConjLogistic(row, np.full(m, 2.0)) for row in mu))
    assert np.prod(np.bincount(d.table_coord).astype(float)) >= 2.0**63
    _assert_rank_completion_is_float_completion(d)


def _assert_lie_forms_batch_matches_single_points(sf, Y):
    n = sf.dictionary.n_logistic
    batch = lie_forms(sf, Y)
    for p, y in enumerate(Y):
        single = lie_forms(sf, y)
        for f in fields(LieForms):
            b, one = getattr(batch, f.name), getattr(single, f.name)
            assert b.shape == (Y.shape[0], n) and one.shape == (n,)
            assert np.array_equal(b[p], one), f.name


# summed over j in another order for the batch than for one point, this
# case moves linearization by 6.9e-18
_BATCH_ORDER_CASE = (
    SpannedField(
        SillDictionary(
            2, (ConjLogistic([0.0, 0.0], [1.0, 1.0]), ConjLogistic([0.0, 1.0], [1.0, 2.0]))
        ),
        np.array([[0.0, 1.0], [1.0, 0.25]]),
    ),
    np.zeros((2, 2)),
)


@_settings
@given(_field_and_points())
@example(_BATCH_ORDER_CASE)
def test_lie_forms_batch_matches_single_points(case):
    _assert_lie_forms_batch_matches_single_points(*case)


def test_lie_forms_batch_matches_single_points_on_seeded_fields():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        m, n, P = rng.integers(1, 4), rng.integers(1, 6), rng.integers(1, 6)
        d = SillDictionary(
            m,
            tuple(
                ConjLogistic(rng.uniform(-2.0, 2.0, m), rng.uniform(0.5, 10.0, m))
                for _ in range(n)
            ),
        )
        sf = SpannedField(d, rng.uniform(-1.0, 1.0, (m, n)))
        _assert_lie_forms_batch_matches_single_points(sf, rng.uniform(-4.0, 4.0, (P, m)))


# lie_forms before the sigmoid tables, kept verbatim but for its factor
# helper: every factor of every logistic and every join evaluated on its
# own, products by np.prod over a (..., m) axis
def _per_factor(y, mu, alpha):
    return stable_sigmoid(alpha * (y - mu))


def _per_factor_lie_forms(sf, y):
    d, W = sf.dictionary, sf.W
    lam = _per_factor(y[..., None, :], d.mu, d.alpha)  # (..., N_L, m)
    lam_all = np.prod(lam, axis=-1)
    mu, alpha = _float_join(d.mu[:, None], d.alpha[:, None], d.mu, d.alpha)
    lam_star = np.prod(_per_factor(y[..., None, None, :], mu, alpha), axis=-1)
    off, on = (d.alpha * (1.0 - lam)) @ W, (d.alpha * lam) @ W
    coeff = d.alpha @ W
    pair = lam_all[..., None, :]
    return LieForms(
        exact=(off * pair).sum(-1) * lam_all,
        intermediate=(off * lam_star).sum(-1),
        linear=(coeff * lam_star).sum(-1),
        linearization=(on * lam_star).sum(-1),
        reference=(coeff * pair).sum(-1) * lam_all,
    )


@st.composite
def _tied_field_and_points(draw):
    d = draw(_tied_dictionary())
    W = draw(arrays(float, (d.m, d.n_logistic), elements=st.floats(-1.0, 1.0)))
    # a single point, a (P, m) batch or a (P1, P2, m) batch
    lead = draw(st.sampled_from([(), (3,), (9,), (2, 3)]))
    y = draw(arrays(float, lead + (d.m,), elements=_coord))
    return SpannedField(d, W), y


@_settings
@given(_tied_field_and_points())
def test_table_kernel_matches_per_factor_products_bit_for_bit(case):
    sf, y = case
    d = sf.dictionary
    lam = _per_factor(y[..., None, :], d.mu, d.alpha)
    full = np.prod(lam, axis=-1, keepdims=True)
    np.testing.assert_array_equal(conj_values(y, d), full[..., 0])
    np.testing.assert_array_equal(grad_conjunctive(y, d), d.alpha * (1.0 - lam) * full)
    got, ref = lie_forms(sf, y), _per_factor_lie_forms(sf, y)
    for f in fields(LieForms):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(ref, f.name), f.name)


@_settings
@given(_tied_dictionary())
@example(_SIGNED_ZEROS)
@example(_TIED_CENTERS)
def test_join_completion_keeps_the_table_and_the_columns(d):
    # every join is drawn from the originals' table, so a closure scale can
    # evaluate the completed dictionary for the field's values
    completed = join_completion(d)
    for name in ("table_mu", "table_alpha", "table_coord"):
        assert np.array_equal(_bits(getattr(completed, name)), _bits(getattr(d, name))), name
    assert np.array_equal(completed.columns[: d.n_logistic], d.columns)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


@st.composite
def _tied_field_and_grids(draw, coord=_coord):
    """A field over a _tied_dictionary, a training grid and a held-out grid."""
    d = draw(_tied_dictionary())
    W = draw(arrays(float, (d.m, d.n_logistic), elements=st.floats(-1.0, 1.0)))
    pts, held = (
        draw(arrays(float, (draw(st.integers(1, 8)), d.m), elements=coord)) for _ in range(2)
    )
    return SpannedField(d, W), pts, held


@_settings
@given(_tied_field_and_grids())
def test_closure_batch_is_each_public_evaluation_bit_for_bit(case):
    sf, Y, _ = case
    d, n = sf.dictionary, sf.dictionary.n_logistic
    completed = join_completion(d)
    (G, A), table, values, lam = _batch(Y, completed, sf)
    own = _sigmoid_table(Y, d)
    assert _same_bits(table, own)
    assert _same_bits(A[:, 1 : 1 + d.m], sf.evaluate(Y))  # the field
    assert _same_bits(values, eval_conjunctive(Y, completed))
    assert _same_bits(lam, eval_conjunctive(Y, d)) and lam.flags.c_contiguous
    assert _same_bits(_gather(table, completed.columns[:n]), _gather(own, d.columns))
    joins = np.take(values, _join_index(completed, n), axis=-1)
    assert _same_bits(joins, _product(own, np.maximum(d.columns[:, None], d.columns)))
    G_ref, A_ref = _system(SnapshotSet(Y, sf.evaluate(Y), "CT"), completed)
    assert _same_bits(G, G_ref) and _same_bits(A, A_ref)


def _reference_closure(sf, pts, held, scales, ridge):
    """closure_experiment from the public calls, each with its own tables."""
    reports = []
    for s in scales:
        sf_s = SpannedField(sf.dictionary.scaled(s), sf.W)
        completed = join_completion(sf_s.dictionary)
        model = fit_generator(SnapshotSet(pts, sf_s.evaluate(pts), "CT"), completed, ridge)
        R = residual(model, SnapshotSet(held, sf_s.evaluate(held), "CT"))
        reports.append(_bounds(sf_s, lie_forms(sf_s, held), R, s))
    return reports


def _outcome(run):
    try:
        return run()
    except ClosureBoundError as exc:
        return str(exc)


# odd multiples of 1/32 never meet a _tied_dictionary center, a multiple of 1/2
_off_center = st.integers(-64, 63).map(lambda k: (2 * k + 1) / 32)


@_settings
@given(_tied_field_and_grids(_off_center), st.sampled_from([0.0, 1e-8]))
def test_closure_experiment_is_the_written_out_reference(case, ridge):
    sf, pts, held = case
    delta = hyperplane_distance(held, sf.dictionary).min()
    scales = [1.0, 2.0, 4.0]
    got = _outcome(
        lambda: closure_experiment(sf, pts, scales, holdout_grid=held, ridge=ridge, delta=delta)
    )
    assert got == _outcome(lambda: _reference_closure(sf, pts, held, scales, ridge))


@_settings
@given(_field_and_points())
def test_compute_bounds_rebuilt_from_per_logistic_forms(case):
    sf, Y = case
    d, W = sf.dictionary, sf.W
    delta = hyperplane_distance(Y, d).min()
    assume(delta > 0)
    _check_clearance(Y, d, delta)
    forms = lie_forms(sf, Y)
    exact, inter, linear = forms.exact, forms.intermediate, forms.linear
    # the bilinear sum, sum_{i,j} alpha_li W_ij lambda_li Lambda_l Lambda_j
    lam = _per_factor(Y[..., None, :], d.mu, d.alpha)  # (P, N_L, m)
    lam_all = np.prod(lam, axis=-1)
    bilinear = (((d.alpha * lam) @ W) * lam_all[..., None, :]).sum(-1) * lam_all
    # residual columns that never exceed their bar_B1, the grid maximum of
    # |exact - intermediate|, so the bound check passes
    residuals = np.abs(np.hstack([np.zeros((len(Y), 1 + d.m)), exact - inter]))
    rep = _bounds(sf, forms, residuals, 1.0)
    gap = np.abs(exact - linear)
    l = int(np.argmax(gap.max(axis=0)))
    nu = np.abs(d.alpha[l][:, None] * W).sum()
    rebuilt = {
        "residual_max": residuals.max(),
        "residual_mean": residuals.max(axis=1).mean(),
        "bar_B1": np.abs(exact - inter)[:, l].max(),
        "bar_B2": nu / 2.0 ** (d.m + 1),
        "tilde_B1": nu / 2.0 ** (2 * d.m + 1),
    }
    for name, value in rebuilt.items():
        assert getattr(rep, name) == pytest.approx(value, rel=1e-15, abs=0.0), name
    # the unweighted reference sum is exact + bilinear, up to the rounding
    # of that addition; in gradual underflow (a subnormal W) rounding is
    # absolute instead, up to half the smallest subnormal in each of the at
    # most 2 (m + N_L) steps of each of the four sums
    scale = np.abs(exact[:, l]) + np.abs(bilinear[:, l]) + np.abs(linear[:, l])
    underflow = 4 * (d.m + d.n_logistic) * np.finfo(float).smallest_subnormal
    tilde_B2 = np.abs(exact + bilinear - linear)[:, l].max()
    assert rep.tilde_B2 == pytest.approx(
        tilde_B2, rel=1e-15, abs=4 * EPS * scale.max() + underflow
    )
    combined = min(rep.bar_B1 + rep.bar_B2, rep.tilde_B1 + rep.tilde_B2)
    assert rep.B == pytest.approx(combined, rel=1e-15, abs=0.0)


# every finite float, signed zeros and subnormals included
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@st.composite
def _snapshot_sets(draw, elements=_finite):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    Y = draw(arrays(float, shape, elements=elements))
    D = draw(arrays(float, shape, elements=elements))
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


# signed zero, the smallest subnormals and normal, and the largest finite float
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1.7976931348623157e308, -1.7976931348623157e308,
]


@_settings
@given(_snapshot_sets(st.one_of(st.sampled_from(_EDGE_FLOATS), _finite)))
def test_snapshot_text_is_the_per_value_format_and_reads_back_bit_exactly(s):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, man_path = Path(tmp) / "s.csv", Path(tmp) / "s.json"
        save_snapshots(s, csv_path, man_path)
        lines = csv_path.read_text(encoding="utf-8").split("\n")
        loaded = load_snapshots(csv_path, man_path)
    # the rule the CSV has always followed: format(v, ".17g") of each value
    rows = [
        ",".join(format(float(v), ".17g") for v in np.concatenate([y, d]))
        for y, d in zip(s.Y, s.D)
    ]
    assert lines[1:] == rows + [""]
    assert np.array_equal(_bits(loaded.Y), _bits(s.Y))
    assert np.array_equal(_bits(loaded.D), _bits(s.D))


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


# The two solvers the SVD replaced, kept as references.
def _normal_equations_solve(G, A, ridge):
    gram = G @ G.T + ridge * np.eye(G.shape[0])
    return np.linalg.solve(gram, G @ A.T).T


def _lstsq_solve(G, A):
    kt, *_ = np.linalg.lstsq(G.T, A.T, rcond=None)
    return kt.T


def _assert_close(K, ref):
    np.testing.assert_allclose(K, ref, rtol=0, atol=1e-9 * np.abs(ref).max())


def _lift_with_singular_values(rng, n, r, s):
    """n x r matrix with singular values s, singular vectors drawn by rng."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    Q2, _ = np.linalg.qr(rng.standard_normal((r, len(s))))
    return (Q1 * s) @ Q2.T


_solver_case = st.fixed_dictionaries(
    {
        "n": st.integers(1, 8),
        "extra": st.integers(0, 20),
        "seed": st.integers(0, 2**32 - 1),
    }
)


@_settings
@given(_solver_case, st.floats(1e-10, 1e2))
def test_svd_solve_matches_both_replaced_solvers_when_well_conditioned(case, ridge):
    n, rng = case["n"], np.random.default_rng(case["seed"])
    r = n + case["extra"]
    G = _lift_with_singular_values(rng, n, r, rng.uniform(1.0, 10.0, n))
    A = rng.standard_normal((n, r))
    _assert_close(solve_koopman_ls(G, A, 0.0), _lstsq_solve(G, A))
    _assert_close(solve_koopman_ls(G, A, ridge), _normal_equations_solve(G, A, ridge))


@_settings
@given(_solver_case, st.booleans())
def test_svd_solve_is_min_norm_and_zero_on_null_space_when_rank_deficient(
    case, duplicate
):
    n, rng = case["n"] + 1, np.random.default_rng(case["seed"])
    if duplicate:
        # enough samples, but one dictionary function repeats another
        G = rng.standard_normal((n, n + case["extra"]))
        G[-1] = G[0]
    else:
        # fewer samples than dictionary functions
        G = rng.standard_normal((n, int(rng.integers(1, n))))
    A = rng.standard_normal(G.shape)
    K = solve_koopman_ls(G, A, 0.0)
    _assert_close(K, _lstsq_solve(G, A))
    null = scipy.linalg.null_space(G.T)
    assert null.shape[1] >= 1
    assert np.abs(K @ null).max() <= 1e-9 * np.abs(K).max()


@st.composite
def _expm_matrices(draw):
    """Dense or strictly upper triangular matrices of 1-norm 1e-3 to 10,
    optionally made stiff by one diagonal entry down to -5000."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if draw(st.booleans()):
        A = np.triu(A, 1)  # nilpotent
    norm = np.abs(A).sum(axis=0).max()
    if norm > 0:
        A *= draw(st.floats(1e-3, 10.0)) / norm
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        A[i, i] = -draw(st.floats(50.0, 5000.0))
    return A


@_settings
@given(_expm_matrices())
@example(np.zeros((4, 4)))
@example(0.5 * np.diag([0.0, -1e4, 0.0]))  # stiff: the mode decays to exactly 0
@example(np.triu(np.ones((6, 6)), 1))
def test_expm_matches_scipy(A):
    E = _expm(A)
    ref = scipy.linalg.expm(A)
    if not A.any():
        assert E.tobytes() == np.eye(len(A)).tobytes()
    if (A == np.diag(np.diag(A))).all():
        assert (E[ref == 0] == 0).all()
    # scaling and squaring amplifies rounding with each of its s squarings,
    # s = ceil(log2(||A||_1 / theta_13)); scipy's own expm is off by up to
    # 1.3e-12 of the largest entry on 2 x 2 matrices of 1-norm near 8
    # (against 40-digit mpmath), hence 2e-12 rather than a few eps
    tol = 2e-12 * max(1.0, np.abs(A).sum(axis=0).max() / _THETA13)
    np.testing.assert_allclose(E, ref, rtol=0, atol=tol * np.abs(ref).max())


_mc_case = st.fixed_dictionaries(
    {
        "m_values": st.lists(st.integers(1, 6), min_size=1, max_size=4),
        "a": st.floats(0.1, 8.0),
        "samples": st.integers(1, 2_000),
        "seed": st.integers(0, 2**32 - 1),
    }
)


@_settings
@given(_mc_case)
def test_conjunctive_table_rows_equal_one_row_estimates(case):
    # all samples fit in one block (2^14), where the extra factors a longer
    # table draws come after row m's and cannot move it
    args = (case["a"], case["samples"], case["seed"])
    table = mc_conjunctive_table(case["m_values"], *args)
    assert table == [mc_conjunctive_table([m], *args)[0] for m in case["m_values"]]


@_settings
@given(_mc_case)
def test_error_rate_linear_at_2k_is_bilinear_at_k(case):
    ks = case["m_values"]
    rows = expected_error_rates(
        ks + [2 * k for k in ks], case["a"], samples=case["samples"], seed=case["seed"]
    )
    for i in range(len(ks)):
        assert rows[len(ks) + i].mc_linear == rows[i].mc_bilinear
