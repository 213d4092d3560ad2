import ast
import importlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import sillkoop
from sillkoop.bench import make_snapshots
from sillkoop.closure import (
    SpannedField,
    closure_experiment,
    half_cell_shift,
    lattice_grid,
    product_approx_decay,
    product_approx_error,
)
from sillkoop.dictionary import (
    ConjLogistic,
    SillDictionary,
    check_total_order,
    conj_values,
    dominates,
    eval_conjunctive,
    grad_conjunctive,
    join_completion,
    join_params,
    lift,
    lift_jacobian,
    load_dictionary,
    save_dictionary,
    stable_sigmoid,
)
from sillkoop.regression import KoopmanModel, SnapshotSet


def test_scalar_logistic_center_value():
    assert eval_conjunctive([0.0], ConjLogistic([0.0], [5.0])) == pytest.approx(0.5)


def test_scalar_logistic_ln3_value():
    # exp(-ln 3) = 1/3 forces 1 / (1 + 1/3) = 0.75
    f = ConjLogistic([0.0], [math.log(3.0)])
    assert eval_conjunctive([1.0], f) == pytest.approx(0.75, rel=1e-14)


def test_scalar_logistic_deep_saturation_no_overflow():
    v = eval_conjunctive([-200.0], ConjLogistic([0.0], [10.0]))
    assert np.isfinite(v)
    assert 0.0 <= v <= 1e-300


def test_scalar_logistic_huge_positive_argument():
    v = eval_conjunctive([500.0], ConjLogistic([0.0], [10.0]))
    assert v == 1.0 or (0.0 < v <= 1.0)
    assert np.isfinite(v)


def test_sigmoid_saturates_exactly_and_passes_nan_without_warnings():
    z = [-np.inf, -1e308, -0.0, 0.0, 1e308, np.inf, np.nan]
    expected = [0.0, 0.0, 0.5, 0.5, 1.0, 1.0, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = stable_sigmoid(np.array(z))
        scalars = [stable_sigmoid(v) for v in z]
    np.testing.assert_array_equal(batch, expected)
    np.testing.assert_array_equal(scalars, expected)
    assert all(type(v) is float for v in scalars)


def test_scalar_logistic_monotone_increasing():
    f = ConjLogistic([0.3], [2.0])
    ys = np.linspace(-4, 4, 101)
    vals = eval_conjunctive(ys[:, None], f)
    assert np.all(np.diff(vals) > 0)


def test_conjunctive_center_is_quarter():
    f = ConjLogistic([0.5, -1.0], [3.0, 7.0])
    assert eval_conjunctive(f.mu, f) == pytest.approx(0.25, rel=1e-14)


def test_conjunctive_center_m5():
    f = ConjLogistic(np.arange(5.0), np.full(5, 2.0))
    assert eval_conjunctive(f.mu, f) == pytest.approx(1.0 / 32.0, rel=1e-14)


def test_conjunctive_hand_product():
    f = ConjLogistic([0.0, 0.0], [math.log(3.0), math.log(3.0)])
    got = eval_conjunctive([1.0, -1.0], f)
    assert got == pytest.approx(0.75 * 0.25, rel=1e-14)


def test_conjunctive_range_and_batch():
    rng = np.random.default_rng(7)
    f = ConjLogistic(rng.uniform(-5, 5, 3), rng.uniform(0.5, 10, 3))
    pts = rng.uniform(-5, 5, size=(64, 3))
    vals = eval_conjunctive(pts, f)
    assert vals.shape == (64,)
    assert np.all(vals > 0) and np.all(vals < 1)


def test_conjunctive_dimension_mismatch():
    f = ConjLogistic([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        eval_conjunctive([0.0, 0.0, 0.0], f)


def test_conjlogistic_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        ConjLogistic([0.0], [0.0])
    with pytest.raises(ValueError):
        ConjLogistic([0.0, 1.0], [1.0, -2.0])


def test_conjlogistic_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ConjLogistic([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="1-D vectors"):
        ConjLogistic([[0.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError, match="at least one coordinate"):
        ConjLogistic([], [])


def _small_dictionary():
    return SillDictionary(
        2,
        (
            ConjLogistic([0.0, 0.5], [2.0, 3.0]),
            ConjLogistic([1.0, -0.5], [4.0, 1.5]),
        ),
    )


def test_lift_center_value_m1():
    f = ConjLogistic([0.7], [5.0])
    d = SillDictionary(1, (f,))
    np.testing.assert_allclose(lift([0.7], d), [1.0, 0.7, 0.5], rtol=1e-14)


def test_lift_layout():
    d = _small_dictionary()
    assert d.size == 5
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(10, 2))
    z = lift(pts, d)
    assert z.shape == (10, 5)
    assert np.all(z[:, 0] == 1.0)
    np.testing.assert_array_equal(z[:, 1:3], pts)
    np.testing.assert_allclose(z[:, 3:], conj_values(pts, d))


def test_dictionary_requires_logistics():
    with pytest.raises(ValueError):
        SillDictionary(2, ())
    f = ConjLogistic([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive integer"):
        SillDictionary(0, (f,))
    with pytest.raises(TypeError, match=r"logistics\[1\] is not a ConjLogistic"):
        SillDictionary(2, (f, {"mu": [0.0, 1.0], "alpha": [1.0, 1.0]}))
    with pytest.raises(ValueError, match=r"logistics\[0\] has dimension 2, dictionary has m=3"):
        SillDictionary(3, (f,))


def test_grad_center_symmetry():
    f = ConjLogistic([0.0], [4.0])
    np.testing.assert_allclose(grad_conjunctive([0.0], f), [1.0], rtol=1e-14)


def test_grad_saturates_to_zero():
    f = ConjLogistic([0.0, 0.0], [5.0, 5.0])
    g = grad_conjunctive([40.0, 40.0], f)
    assert np.all(np.abs(g) < 1e-60)


def _central_difference(fun, y, h=1e-6):
    y = np.asarray(y, dtype=float)
    out = np.empty(y.size)
    for i in range(y.size):
        up = y.copy()
        dn = y.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return out


def test_grad_matches_finite_differences():
    # 100 random draws; atol floors the components where central
    # differencing bottoms out in roundoff (saturated coordinates)
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        f = ConjLogistic(rng.uniform(-5, 5, m), rng.uniform(0.5, 10, m))
        y = rng.uniform(-5, 5, m)
        fd = _central_difference(lambda p: eval_conjunctive(p, f), y)
        np.testing.assert_allclose(grad_conjunctive(y, f), fd, rtol=1e-5, atol=1e-9)


def test_lift_jacobian_structure():
    d = _small_dictionary()
    y = np.array([0.3, -0.2])
    jac = lift_jacobian(y, d)
    assert jac.shape == (5, 2)
    assert np.all(jac[0] == 0.0)
    np.testing.assert_array_equal(jac[1:3], np.eye(2))
    with pytest.raises(ValueError, match="length-2 point"):
        lift_jacobian(np.zeros((3, 2)), d)


def test_lift_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        fs = tuple(
            ConjLogistic(rng.uniform(-5, 5, m), rng.uniform(0.5, 10, m))
            for _ in range(int(rng.integers(1, 4)))
        )
        d = SillDictionary(m, fs)
        y = rng.uniform(-5, 5, m)
        jac = lift_jacobian(y, d)
        h = 1e-6
        for i in range(m):
            up = y.copy()
            dn = y.copy()
            up[i] += h
            dn[i] -= h
            fd = (lift(up, d) - lift(dn, d)) / (2.0 * h)
            np.testing.assert_allclose(jac[:, i], fd, rtol=1e-5, atol=1e-9)


def test_dominates_examples():
    f = ConjLogistic([1.0, 2.0], [1.0, 1.0])
    g = ConjLogistic([3.0, 4.0], [1.0, 1.0])
    assert dominates(f, g)
    assert not dominates(g, f)


def test_dominates_incomparable_pair():
    f = ConjLogistic([1.0, 5.0], [1.0, 1.0])
    g = ConjLogistic([3.0, 2.0], [1.0, 1.0])
    assert not dominates(f, g)
    assert not dominates(g, f)


@pytest.mark.parametrize(
    "pair",
    [join_params, dominates, lambda f, g: product_approx_error(f, g, [0.0, 0.0])],
    ids=["join_params", "dominates", "product_approx_error"],
)
def test_pair_of_different_dimensions_is_refused(pair):
    # join_params and product_approx_error leave the check to the pair's
    # SillDictionary; without dominates' own, g.mu - f.mu would broadcast
    f = ConjLogistic([0.0, 1.0], [1.0, 1.0])
    g = ConjLogistic([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        pair(f, g)


def test_dominates_reflexive_on_ties():
    f = ConjLogistic([1.0, 5.0], [1.0, 1.0])
    assert dominates(f, f)


def test_dominates_order_properties():
    # reflexive, antisymmetric up to equal centers, transitive
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        fs = [
            ConjLogistic(rng.integers(-2, 3, m).astype(float), rng.uniform(1, 2, m))
            for _ in range(3)
        ]
        for f in fs:
            assert dominates(f, f)
        a, b, c = fs
        if dominates(a, b) and dominates(b, a):
            assert np.array_equal(a.mu, b.mu)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_check_total_order_chain():
    d = SillDictionary(
        1,
        tuple(ConjLogistic([float(k)], [1.0]) for k in range(3)),
    )
    assert check_total_order(d) == ()


def test_check_total_order_incomparable():
    d = SillDictionary(
        2,
        (
            ConjLogistic([1.0, 5.0], [1.0, 1.0]),
            ConjLogistic([3.0, 2.0], [1.0, 1.0]),
        ),
    )
    assert check_total_order(d) == ((0, 1),)


def test_check_total_order_single_function():
    d = SillDictionary(2, (ConjLogistic([0.0, 0.0], [1.0, 1.0]),))
    assert check_total_order(d) == ()


def test_join_params_componentwise():
    f = ConjLogistic([1.0, 5.0], [2.0, 7.0])
    g = ConjLogistic([3.0, 2.0], [4.0, 9.0])
    j = join_params(f, g)
    np.testing.assert_array_equal(j.mu, [3.0, 5.0])
    np.testing.assert_array_equal(j.alpha, [4.0, 7.0])


def test_join_params_dominated_pair_is_upper_function():
    f = ConjLogistic([0.0, 0.0], [1.0, 2.0])
    g = ConjLogistic([1.0, 3.0], [5.0, 6.0])
    assert dominates(f, g)
    assert join_params(f, g) == g


def test_join_params_idempotent():
    f = ConjLogistic([0.5, -2.0], [1.0, 2.0])
    assert join_params(f, f) == f


def test_join_params_tie_takes_larger_alpha():
    f = ConjLogistic([1.0], [2.0])
    g = ConjLogistic([1.0], [5.0])
    assert join_params(f, g).alpha[0] == 5.0


def test_join_algebra_properties():
    # commutative, associative, idempotent; exact since max is exact
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a, b, c = (
            ConjLogistic(rng.uniform(-3, 3, m), rng.uniform(0.5, 5, m))
            for _ in range(3)
        )
        assert join_params(a, b) == join_params(b, a)
        assert join_params(join_params(a, b), c) == join_params(a, join_params(b, c))
        assert join_params(a, a) == a


def test_join_completion_hand_case():
    d = SillDictionary(
        2,
        (
            ConjLogistic([1.0, 5.0], [2.0, 7.0]),
            ConjLogistic([3.0, 2.0], [4.0, 9.0]),
        ),
    )
    out = join_completion(d)
    assert out.n_logistic == 3
    assert out.logistics[:2] == d.logistics
    j = out.logistics[2]
    np.testing.assert_array_equal(j.mu, [3.0, 5.0])
    np.testing.assert_array_equal(j.alpha, [4.0, 7.0])


def test_join_completion_chain_unchanged():
    d = SillDictionary(
        2,
        (
            ConjLogistic([0.0, 0.0], [1.0, 1.0]),
            ConjLogistic([1.0, 2.0], [2.0, 2.0]),
            ConjLogistic([3.0, 4.0], [3.0, 3.0]),
        ),
    )
    out = join_completion(d)
    assert out.logistics == d.logistics


def test_join_completion_single_function_unchanged():
    d = SillDictionary(1, (ConjLogistic([0.0], [1.0]),))
    assert join_completion(d).logistics == d.logistics


def test_join_completion_closed_under_join():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        fs = tuple(
            ConjLogistic(rng.uniform(-2, 2, m), rng.uniform(0.5, 5, m))
            for _ in range(int(rng.integers(2, 5)))
        )
        out = join_completion(SillDictionary(m, fs))
        have = set(out.logistics)
        for a in out.logistics:
            for b in out.logistics:
                assert join_params(a, b) in have


def test_join_completion_terminates_on_larger_sets():
    # closure size is capped by the grid of original center coordinates
    rng = np.random.default_rng(29)
    for _ in range(5):
        fs = tuple(
            ConjLogistic(rng.uniform(-2, 2, 3), rng.uniform(0.5, 5, 3))
            for _ in range(5)
        )
        out = join_completion(SillDictionary(3, fs))
        assert out.n_logistic <= 5**3
        have = set(out.logistics)
        for a in out.logistics:
            for b in out.logistics:
                assert join_params(a, b) in have


def test_dictionary_json_roundtrip(tmp_path):
    d = _small_dictionary()
    path = tmp_path / "dict.json"
    save_dictionary(d, path)
    loaded = load_dictionary(path)
    assert loaded.m == d.m
    assert loaded.logistics == d.logistics
    # schema shape: {"m": int, "logistics": [{"mu": [...], "alpha": [...]}]}
    obj = json.loads(path.read_text())
    assert set(obj) == {"m", "logistics"}
    assert all(set(e) == {"mu", "alpha"} for e in obj["logistics"])


def test_dictionary_from_dict_missing_fields():
    with pytest.raises(ValueError):
        SillDictionary.from_dict({"m": 2})
    with pytest.raises(ValueError):
        SillDictionary.from_dict({"logistics": []})


_MODULES = ["dictionary", "regression", "closure", "stats", "bench", "errors"]


@pytest.mark.parametrize("module", _MODULES)
def test_package_exports_each_module_all(module):
    # a module's __all__ is the one list of its public names
    mod = importlib.import_module(f"sillkoop.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(sillkoop, name) is getattr(mod, name), name


# public names that no command, demo, README line or benchmark reaches, each
# kept public for the reason given
_KEPT_WITHOUT_CALLER = {
    "fit_edmd": "the DT twin of fit_generator, which the README documents",
    "save_model": "the one library path from a model fitted in Python to `sillkoop predict`",
}


def test_every_public_name_has_a_caller():
    # each __all__ name appears as a word in src/, demos/, perfbench/ or the
    # README, outside its own definition and its __all__ entry
    root = Path(__file__).resolve().parents[1]
    paths = [*root.glob("src/sillkoop/*.py"), *root.glob("demos/*.py")]
    paths += [*root.glob("perfbench/*.py"), root / "README.md"]
    texts = {p: p.read_text(encoding="utf-8") for p in paths}
    uncalled = []
    for module in _MODULES:
        mod = importlib.import_module(f"sillkoop.{module}")
        own = Path(mod.__file__).resolve()
        lines = texts[own].splitlines()
        spans = {}  # name -> line range of its definition; "__all__" -> the list
        for node in ast.parse(texts[own]).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                spans[node.name] = range(node.lineno - 1, node.end_lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        spans[target.id] = range(node.lineno - 1, node.end_lineno)
        for name in mod.__all__:
            skip = {*spans.get(name, ()), *spans["__all__"]}
            own_text = "\n".join(line for i, line in enumerate(lines) if i not in skip)
            others = (text for p, text in texts.items() if p != own)
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in (own_text, *others)):
                uncalled.append(name)
    assert sorted(uncalled) == sorted(_KEPT_WITHOUT_CALLER)


def _pair_dictionary():
    return SillDictionary(
        2, (ConjLogistic([-0.4, 0.3], [2.0, 3.0]), ConjLogistic([0.5, -0.2], [3.0, 2.0]))
    )


def _snapshot_set():
    Y, D = np.zeros((3, 2)), np.ones((3, 2))
    s = SnapshotSet(Y, D, "CT")
    return [Y, D], [s.Y, s.D]


def _spanned_field():
    W = np.full((2, 2), 0.5)
    return [W], [SpannedField(_pair_dictionary(), W).W]


def _koopman_model():
    K = np.eye(5)
    return [K], [KoopmanModel(K, _pair_dictionary(), "CT").K]


def _conj_logistic():
    mu, alpha = np.zeros(2), np.ones(2)
    f = ConjLogistic(mu, alpha)
    return [mu, alpha], [f.mu, f.alpha]


def _make_snapshots():
    pts = np.linspace(-1.0, 1.0, 8).reshape(4, 2)
    return [pts], [make_snapshots(lambda y: -y, pts).Y]


def _closure_experiment():
    # the CI's m = 2 closure config at one scale
    d = SillDictionary(
        2,
        (
            ConjLogistic([-1.225, 0.525], [7.0, 7.4]),
            ConjLogistic([0.175, -0.875], [7.6, 6.9]),
            ConjLogistic([-0.525, 1.225], [7.2, 7.8]),
        ),
    )
    sf = SpannedField(d, [[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]])
    box = [[-2.8, 2.8], [-2.8, 2.8]]
    grid, held = lattice_grid(box, 9), half_cell_shift(box, 9)
    closure_experiment(sf, grid, [1.0], holdout_grid=held, delta=0.17)
    return [grid, held], []


def _product_approx_decay():
    f = ConjLogistic([0.0, 0.0], [2.5, 3.0])
    g = ConjLogistic([1.0, 1.2], [3.0, 2.5])
    scales = np.array([1.0, 2.0, 4.0])
    product_approx_decay(f, g, lattice_grid([[-3.0, 4.0], [-3.0, 4.0]], 10), scales)
    return [scales], []


@pytest.mark.parametrize(
    "build",
    [
        _snapshot_set,
        _spanned_field,
        _koopman_model,
        _conj_logistic,
        _make_snapshots,
        _closure_experiment,
        _product_approx_decay,
    ],
    ids=lambda build: build.__name__.lstrip("_"),
)
def test_callers_arrays_stay_writable_and_unshared(build):
    # an object keeps a read-only copy of each array it is given: the
    # caller's array stays writable, and writing into it leaves the object
    # as it was
    given, kept = build()
    before = [k.copy() for k in kept]
    for arr in given:
        assert arr.flags.writeable
        arr += 1.0
    for k, b in zip(kept, before):
        assert not k.flags.writeable
        np.testing.assert_array_equal(k, b)
