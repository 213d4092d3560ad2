import os
import tracemalloc

import numpy as np
import pytest

from sillkoop.bench import VectorField, rk4_integrate
from sillkoop.dictionary import ConjLogistic, SillDictionary, lift
from sillkoop.regression import (
    KoopmanModel,
    SnapshotSet,
    fit_edmd,
    fit_generator,
    lift_derivatives,
    load_model,
    load_snapshots,
    predict_ct,
    project_state,
    residual,
    save_model,
    save_snapshots,
    solve_koopman_ls,
)


def _dictionary(m=2, n_logistic=2, seed=0):
    rng = np.random.default_rng(seed)
    fs = tuple(
        ConjLogistic(rng.uniform(-1.5, 1.5, m), rng.uniform(1, 4, m))
        for _ in range(n_logistic)
    )
    return SillDictionary(m, fs)


def _ct_snapshots(d, r=40, seed=1):
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-2, 2, size=(r, d.m))
    # a smooth nonlinear field, not representable in the dictionary span
    D = np.tanh(Y) + 0.3 * np.sin(2.0 * Y[:, ::-1])
    return SnapshotSet(Y, D, "CT")


def test_snapshot_set_validation():
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 2)), np.zeros((2, 2)), "CT")
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((0, 2)), np.zeros((0, 2)), "CT")
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 2)), np.full((3, 2), np.nan), "CT")
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 2)), np.zeros((3, 2)), "DT")  # missing dt
    with pytest.raises(ValueError):
        SnapshotSet(np.zeros((3, 2)), np.zeros((3, 2)), "CT", dt=0.1)


def test_lift_derivatives_structure():
    d = _dictionary()
    s = _ct_snapshots(d)
    A = lift_derivatives(s, d)
    assert A.shape == (s.r, d.size)
    assert np.all(A[:, 0] == 0.0)
    np.testing.assert_array_equal(A[:, 1 : 1 + d.m], s.D)


def test_lift_derivatives_matches_directional_difference():
    d = _dictionary(seed=3)
    s = _ct_snapshots(d, r=20, seed=4)
    A = lift_derivatives(s, d)
    h = 1e-6
    fd = (lift(s.Y + h * s.D, d) - lift(s.Y - h * s.D, d)) / (2.0 * h)
    np.testing.assert_allclose(A, fd, rtol=1e-4, atol=1e-10)


def test_lift_derivatives_rejects_dt_mode():
    d = _dictionary()
    s = SnapshotSet(np.zeros((2, 2)), np.ones((2, 2)), "DT", dt=0.1)
    with pytest.raises(ValueError):
        lift_derivatives(s, d)


def test_known_matrix_recovery_from_lifted_pairs():
    # targets generated as A = K0 G at r >= 2N well-separated points
    d = _dictionary(m=2, n_logistic=2, seed=5)
    rng = np.random.default_rng(6)
    n = d.size
    pts = rng.uniform(-2.5, 2.5, size=(3 * n, d.m))
    G = lift(pts, d).T
    K0 = rng.uniform(-1, 1, size=(n, n))
    K = solve_koopman_ls(G, K0 @ G, ridge=0.0)
    err = np.linalg.norm(K - K0) / np.linalg.norm(K0)
    assert err < 1e-6


def test_normal_equation_orthogonality():
    d = _dictionary(m=2, n_logistic=3, seed=7)
    s = _ct_snapshots(d, r=60, seed=8)
    model = fit_generator(s, d, ridge=0.0)
    G = lift(s.Y, d).T
    A = lift_derivatives(s, d).T
    resid = (A - model.K @ G) @ G.T
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(G)


def test_single_snapshot_with_ridge_is_finite():
    d = _dictionary()
    s = SnapshotSet([[0.1, -0.2]], [[1.0, 0.5]], "CT")
    model = fit_generator(s, d, ridge=1e-3)
    assert np.isfinite(model.K).all()


def test_zero_derivatives_give_zero_generator():
    d = _dictionary(seed=9)
    rng = np.random.default_rng(10)
    Y = rng.uniform(-2, 2, size=(30, d.m))
    s = SnapshotSet(Y, np.zeros_like(Y), "CT")
    model = fit_generator(s, d, ridge=1e-4)
    np.testing.assert_allclose(model.K, 0.0, atol=1e-12)


def test_fit_is_deterministic():
    d = _dictionary(seed=11)
    s = _ct_snapshots(d, seed=12)
    k1 = fit_generator(s, d, ridge=1e-6).K
    k2 = fit_generator(s, d, ridge=1e-6).K
    np.testing.assert_array_equal(k1, k2)


def test_edmd_identity_dynamics():
    d = _dictionary(seed=13)
    rng = np.random.default_rng(14)
    Y = rng.uniform(-2, 2, size=(50, d.m))
    s = SnapshotSet(Y, Y, "DT", dt=0.1)
    model = fit_edmd(s, d, ridge=0.0)
    rep = residual(model, s)
    assert rep.max_row_norm < 1e-8


def test_edmd_linear_system_state_rows():
    d = _dictionary(seed=15)
    rng = np.random.default_rng(16)
    A_sys = np.array([[0.9, 0.1], [-0.2, 0.8]])
    Y = rng.uniform(-2, 2, size=(80, 2))
    s = SnapshotSet(Y, Y @ A_sys.T, "DT", dt=0.05)
    model = fit_edmd(s, d, ridge=0.0)
    pred = lift(s.Y, d) @ model.K.T
    state_err = np.abs(pred[:, 1 : 1 + d.m] - s.D).max()
    assert state_err < 1e-8


def test_edmd_underdetermined_min_norm_is_finite():
    d = _dictionary(m=2, n_logistic=4, seed=17)
    rng = np.random.default_rng(18)
    Y = rng.uniform(-1, 1, size=(3, 2))  # r < N
    s = SnapshotSet(Y, Y * 0.5, "DT", dt=0.1)
    model = fit_edmd(s, d, ridge=0.0)
    assert np.isfinite(model.K).all()


def test_project_state_roundtrip():
    d = _dictionary()
    rng = np.random.default_rng(19)
    y = rng.uniform(-2, 2, size=d.m)
    np.testing.assert_array_equal(project_state(lift(y, d), d), y)


def test_project_state_ignores_constant_and_logistic_components():
    d = _dictionary()
    e0 = np.zeros(d.size)
    e0[0] = 1.0
    np.testing.assert_array_equal(project_state(e0, d), np.zeros(d.m))
    y = np.array([0.4, -1.1])
    z = lift(y, d)
    z_perturbed = z.copy()
    z_perturbed[1 + d.m :] += 7.0
    np.testing.assert_array_equal(project_state(z_perturbed, d), y)


def test_predict_zero_generator_is_constant():
    d = _dictionary()
    model = KoopmanModel(np.zeros((d.size, d.size)), d, "CT")
    traj = predict_ct(model, [0.3, -0.7], horizon=1.0, dt=0.1)
    assert not traj.diverged
    assert traj.y.shape == (11, 2)
    np.testing.assert_array_equal(traj.y, np.tile([0.3, -0.7], (11, 1)))


def test_predict_matches_scalar_exponential_decay():
    # state row encodes dy/dt = -y; the logistic sits far away and stays inert
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = -1.0
    model = KoopmanModel(K, d, "CT")
    traj = predict_ct(model, [1.0], horizon=1.0, dt=1e-3)
    assert not traj.diverged
    assert traj.y.shape == (1001, 1)
    assert abs(traj.y[-1, 0] - np.exp(-1.0)) < 1e-6


def test_predict_zero_horizon_single_row():
    d = _dictionary()
    model = KoopmanModel(np.zeros((d.size, d.size)), d, "CT")
    traj = predict_ct(model, [0.1, 0.2], horizon=0.0, dt=0.1)
    assert traj.y.shape == (1, 2)


def test_predict_flags_divergence():
    d = SillDictionary(1, (ConjLogistic([0.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = 1e4  # violently unstable lifted mode
    model = KoopmanModel(K, d, "CT")
    traj = predict_ct(model, [1.0], horizon=20.0, dt=0.5)
    assert traj.diverged
    assert traj.y.shape[0] < 41
    assert np.isfinite(traj.y).all()


def test_predict_keeps_only_the_measurement_rows():
    # 10k steps at N = 47: the trajectory is 10k x 2 floats (160 kB); rows
    # that kept views into the lifted state would hold 10k x 47 floats
    d = _dictionary(m=2, n_logistic=44)
    model = KoopmanModel(-0.1 * np.eye(d.size), d, "CT")
    tracemalloc.start()
    try:
        traj = predict_ct(model, [0.3, -0.2], horizon=10.0, dt=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.y.shape == (10_001, 2)
    assert peak < 1_000_000


@pytest.mark.parametrize("rate", [-10.0, -1e4])
def test_predict_stiff_stable_model_decays(rate):
    # at dt = 0.5 RK4 amplifies the mode e^(rate t) by 13.7 (rate -10) or
    # overflows (rate -1e4) per step; the exact propagator decays it
    d = SillDictionary(1, (ConjLogistic([0.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = rate
    traj = predict_ct(KoopmanModel(K, d, "CT"), [1.0], horizon=20.0, dt=0.5)
    assert not traj.diverged
    assert traj.y.shape == (41, 1)
    assert np.isfinite(traj.y).all()
    assert (np.diff(traj.y[:, 0]) <= 0).all() and traj.y[-1, 0] < 1e-80
    np.testing.assert_allclose(traj.y[:, 0], np.exp(rate * 0.5 * np.arange(41)), rtol=1e-12)


def test_predict_matches_rk4_on_the_lifted_field():
    d = _dictionary(seed=30)
    model = fit_generator(_ct_snapshots(d, seed=31), d, ridge=1e-8)
    K, y0 = model.K, np.array([0.4, -0.9])
    lifted = VectorField("lifted", d.size, lambda z: K @ z, ((-10.0, 10.0),) * d.size)
    ref = rk4_integrate(lifted, lift(y0, d), dt=1e-3, steps=1000)
    traj = predict_ct(model, y0, horizon=1.0, dt=1e-3)
    assert not traj.diverged and not ref.diverged
    np.testing.assert_allclose(traj.y, ref.y[:, 1 : 1 + d.m], rtol=0, atol=1e-9)


def test_residual_zero_model_equals_lifted_derivatives():
    d = _dictionary(seed=20)
    s = _ct_snapshots(d, seed=21)
    model = KoopmanModel(np.zeros((d.size, d.size)), d, "CT")
    rep = residual(model, s)
    np.testing.assert_array_equal(rep.matrix, lift_derivatives(s, d))


def test_residual_of_exact_lifted_data_is_tiny():
    d = _dictionary(m=2, n_logistic=2, seed=22)
    rng = np.random.default_rng(23)
    n = d.size
    pts = rng.uniform(-2.5, 2.5, size=(3 * n, d.m))
    G = lift(pts, d).T
    K0 = rng.uniform(-1, 1, size=(n, n))
    K = solve_koopman_ls(G, K0 @ G, ridge=0.0)
    assert np.abs(K0 @ G - K @ G).max() < 1e-6


def test_ridge_strictly_increases_training_residual():
    d = _dictionary(seed=24)
    s = _ct_snapshots(d, seed=25)
    r0 = residual(fit_generator(s, d, ridge=0.0), s)
    r1 = residual(fit_generator(s, d, ridge=0.5), s)
    assert np.linalg.norm(r1.matrix) > np.linalg.norm(r0.matrix)


def test_residual_mode_mismatch_rejected():
    d = _dictionary()
    model = KoopmanModel(np.zeros((d.size, d.size)), d, "CT")
    s = SnapshotSet(np.zeros((2, 2)), np.zeros((2, 2)), "DT", dt=0.1)
    with pytest.raises(ValueError):
        residual(model, s)


def test_snapshot_csv_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(26)
    Y = rng.standard_normal((12, 3)) * np.pi
    D = rng.standard_normal((12, 3)) / 3.0
    s = SnapshotSet(Y, D, "CT")
    csv_path = tmp_path / "snaps.csv"
    man_path = tmp_path / "snaps.json"
    save_snapshots(s, csv_path, man_path)
    loaded = load_snapshots(csv_path, man_path)
    np.testing.assert_array_equal(loaded.Y, Y)
    np.testing.assert_array_equal(loaded.D, D)
    assert loaded.mode == "CT"


def test_snapshot_csv_malformed_line_is_named(tmp_path):
    csv_path = tmp_path / "bad.csv"
    man_path = tmp_path / "bad.json"
    csv_path.write_text("y1,d1\n0.5,1.0\n0.25\n")
    man_path.write_text('{"mode": "CT", "dt": null}\n')
    with pytest.raises(ValueError, match="line 3"):
        load_snapshots(csv_path, man_path)


def test_model_json_roundtrip(tmp_path):
    d = _dictionary(seed=27)
    s = _ct_snapshots(d, seed=28)
    model = fit_generator(s, d, ridge=1e-8)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.K, model.K)
    assert loaded.mode == model.mode
    assert loaded.ridge == model.ridge
    assert loaded.dictionary.logistics == d.logistics


def test_failed_model_save_keeps_previous_file(tmp_path, monkeypatch):
    d = _dictionary(seed=27)
    path = tmp_path / "model.json"
    save_model(fit_generator(_ct_snapshots(d, seed=28), d), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_model(fit_generator(_ct_snapshots(d, seed=29), d), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_snapshot_set_rejects_flat_vectors():
    with pytest.raises(ValueError, match="2-D"):
        SnapshotSet(np.zeros(4), np.zeros(4), "CT")


def test_fit_generator_rejects_dt_snapshots():
    d = _dictionary()
    s = SnapshotSet(np.zeros((2, 2)), np.ones((2, 2)), "DT", dt=0.1)
    with pytest.raises(ValueError):
        fit_generator(s, d)


def test_predict_rejects_dt_model():
    d = _dictionary()
    model = KoopmanModel(np.zeros((d.size, d.size)), d, "DT")
    with pytest.raises(ValueError):
        predict_ct(model, [0.0, 0.0], horizon=1.0, dt=0.1)


def test_solver_input_validation():
    G = np.ones((3, 5))
    with pytest.raises(ValueError):
        solve_koopman_ls(G, np.ones((3, 4)), ridge=0.0)
    with pytest.raises(ValueError):
        solve_koopman_ls(G, G, ridge=-1.0)
    bad = G.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_koopman_ls(G, bad, ridge=0.0)


def test_load_snapshots_rejects_wrong_header(tmp_path):
    csv_path = tmp_path / "h.csv"
    csv_path.write_text("a,b\n1,2\n")
    man = tmp_path / "m.json"
    man.write_text('{"mode": "CT", "dt": null}')
    with pytest.raises(ValueError, match="header"):
        load_snapshots(csv_path, man)
