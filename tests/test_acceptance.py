"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import json
import time
from pathlib import Path

import numpy as np

from sillkoop.bench import make_snapshots, polynomial_residual_growth
from sillkoop.cli import main as cli_main
from sillkoop.closure import (
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
    lift,
    lift_jacobian,
    save_dictionary,
    stable_sigmoid,
)
from sillkoop.regression import (
    KoopmanModel,
    SnapshotSet,
    _system,
    fit_generator,
    save_model,
    save_snapshots,
    solve_koopman_ls,
)
from sillkoop.stats import (
    expected_logistic,
    expected_error_rates,
    mc_conjunctive_table,
    product_pdf_normalization,
)

from reference_fields import VAN_DER_POL


def _criterion(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.2f}s / {limit}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_product_decay():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst_ratio = 0.0
    worst_slope = -np.inf
    for _ in range(20):
        m = int(rng.integers(1, 4))
        mu_f = rng.uniform(-2.0, 0.8, m)
        mu_g = mu_f + rng.uniform(0.3, 1.2, m)  # comparable, centers within [-2, 2]
        f = ConjLogistic(mu_f, rng.uniform(2, 5, m))
        g = ConjLogistic(mu_g, rng.uniform(2, 5, m))
        pair = SillDictionary(m, (f, g))
        pts = []
        while len(pts) < 30:
            cand = rng.uniform(-3.5, 3.5, (200, m))
            keep = hyperplane_distance(cand, pair) >= 0.6
            pts.extend(cand[keep][: 30 - len(pts)])
        errors, slope, _ = product_approx_decay(f, g, np.asarray(pts), [1, 2, 4, 8])
        worst_ratio = max(worst_ratio, errors[-1] / errors[0])
        worst_slope = max(worst_slope, slope)
    elapsed = time.time() - t0
    ok = worst_slope < 0 and worst_ratio <= 1e-3
    _criterion(
        1,
        "product-approximation decay",
        ok,
        f"worst slope {worst_slope:.3f} < 0, worst err8/err1 {worst_ratio:.2e} <= 1e-3",
        elapsed,
        10.0,
    )


def test_criterion_2_identity_chain():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    points_checked = 0
    for _ in range(50):  # 50 random fields x 20 points = 1000 points
        m = int(rng.integers(1, 4))
        nl = int(rng.integers(1, 4))
        d = SillDictionary(
            m,
            tuple(
                ConjLogistic(rng.uniform(-2, 2, m), rng.uniform(0.5, 5, m))
                for _ in range(nl)
            ),
        )
        sf = SpannedField(d, rng.standard_normal((m, nl)))
        y = rng.uniform(-3, 3, size=(20, m))
        points_checked += y.shape[0]
        l = int(rng.integers(0, nl))
        fl = d.logistics[l]
        lam = stable_sigmoid(fl.alpha * (y - fl.mu))
        # with eps = Lambda_l Lambda_j - Lambda_star the bilinear sum equals
        # the intermediate sum plus the weighted eps terms
        correction = sum(
            fl.alpha[i]
            * sf.W[i, j]
            * (1.0 - lam[:, i])
            * product_approx_error(fl, d.logistics[j], y)
            for i in range(m)
            for j in range(nl)
        )
        forms = lie_forms(sf, y)
        exact = forms.exact[:, l]
        inter = forms.intermediate[:, l]
        linear = forms.linear[:, l]
        err_lin = forms.linearization[:, l]
        scale1 = np.maximum(np.maximum(np.abs(exact), np.abs(inter)), 1.0)
        scale2 = np.maximum(np.maximum(np.abs(linear), np.abs(inter)), 1.0)
        r1 = np.abs(exact - (inter + correction)) / scale1
        r2 = np.abs(linear - (inter + err_lin)) / scale2
        worst = max(worst, r1.max(), r2.max())
    elapsed = time.time() - t0
    assert points_checked == 1000
    _criterion(
        2,
        "Lie-derivative identity chain",
        worst <= 1e-12,
        f"worst relative identity residual {worst:.2e} <= 1e-12 at {points_checked} points",
        elapsed,
        1.0,
    )


# centers at quarter-cell offsets of the 9-point lattice over [-2.8, 2.8]
# (cell 0.7): 0.175 clearance on the lattice and its half-cell shift, and
# steepness * clearance > 1 so the fitted residual decays from scale 1 on
_CLOSURE_FIELD = dict(
    logistics=(
        ([-1.225, 0.525], [7.0, 7.4]),
        ([0.175, -0.875], [7.6, 6.9]),
        ([-0.525, 1.225], [7.2, 7.8]),
    ),
    W=[[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]],
    box=[(-2.8, 2.8), (-2.8, 2.8)],
    points=9,
    delta=0.17,
)


def test_criterion_3_closure_bound_decay():
    t0 = time.time()
    spec = _CLOSURE_FIELD
    d = SillDictionary(2, tuple(ConjLogistic(mu, al) for mu, al in spec["logistics"]))
    sf = SpannedField(d, np.asarray(spec["W"]))
    train = lattice_grid(spec["box"], spec["points"])
    held = half_cell_shift(spec["box"], spec["points"])
    reports = closure_experiment(
        sf, train, [1, 2, 4, 8, 64], holdout_grid=held, delta=spec["delta"]
    )
    res = np.array([r.residual_max for r in reports])
    non_increasing = bool(np.all(np.diff(res[:4]) <= 0))
    drop = res[0] / res[4]
    elapsed = time.time() - t0
    _criterion(
        3,
        "closure-bound residual decay",
        non_increasing and drop >= 100.0,
        f"residual_max {res[:4].round(6).tolist()} non-increasing, "
        f"scale-1/scale-64 drop {drop:.1e} >= 100",
        elapsed,
        60.0,
    )


def test_criterion_4_error_rate_table():
    t0 = time.time()
    rows = expected_error_rates(range(1, 7), 2.0, samples=1_000_000, seed=11)
    slope = np.polyfit([r.m for r in rows], np.log2([r.mc_linear for r in rows]), 1)[0]
    ratios_exact = all(r.rate_linear / r.rate_bilinear == 2.0**r.m for r in rows)
    elapsed = time.time() - t0
    _criterion(
        4,
        "per-term expected error rates",
        -1.3 <= slope <= -0.7 and ratios_exact,
        f"log2 slope {slope:.3f} in [-1.3, -0.7], rate ratio exactly 2^m",
        elapsed,
        30.0,
    )


def test_criterion_5_product_density_moments():
    t0 = time.time()
    norms = []
    reports = []
    for i, a in enumerate((1.0, 2.0, 4.0, 8.0)):
        norms.append(abs(product_pdf_normalization(a) - 1.0))
        reports.append(expected_logistic(a, samples=1_000_000, seed=100 + i))
    norm_ok = max(norms) < 1e-6
    mean_ok = all(abs(r.expectation - 0.5) < 1e-3 for r in reports)
    var_ok = bool(np.all(np.diff([r.variance for r in reports]) > 0))
    agree_ok = all(
        abs(r.expectation - r.mc_expectation) <= max(3 * r.mc_stderr, 1e-3)
        for r in reports
    )
    elapsed = time.time() - t0
    _criterion(
        5,
        "product-density moments",
        norm_ok and mean_ok and var_ok and agree_ok,
        f"max |norm-1| {max(norms):.1e}, E within 1e-3 of 0.5, "
        f"variance increasing, quad/MC within max(3se, 1e-3)",
        elapsed,
        30.0,
    )


def test_criterion_6_conjunctive_expectation_bound():
    t0 = time.time()
    details = []
    ok = True
    for m in range(1, 7):
        est, stderr = mc_conjunctive_table([m], 2.0, 1_000_000, seed=m)[0]
        ok = ok and est <= 2.0**-m + 3 * stderr
        details.append(f"m={m}: {est:.5f}")
    elapsed = time.time() - t0
    _criterion(
        6,
        "conjunctive expectation bound",
        ok,
        "E[Lambda] <= 1/2^m + 3se for " + ", ".join(details),
        elapsed,
        30.0,
    )


def test_criterion_7_polynomial_nonclosure_growth():
    t0 = time.time()
    slopes = {}
    for n in (1, 2, 3):
        _, _, slopes[n] = polynomial_residual_growth(n, np.linspace(-10, 10, 201))
    ok = all(abs(slopes[n] - (n + 1)) < 0.05 for n in (1, 2, 3))
    elapsed = time.time() - t0
    _criterion(
        7,
        "polynomial non-closure growth",
        ok,
        "log-log residual slopes "
        + ", ".join(f"n={n}: {s:.4f}" for n, s in slopes.items()),
        elapsed,
        5.0,
    )


def test_criterion_8_regression_recovery():
    t0 = time.time()
    rng = np.random.default_rng(31)
    d = SillDictionary(
        2,
        tuple(
            ConjLogistic(rng.uniform(-1.5, 1.5, 2), rng.uniform(1, 4, 2))
            for _ in range(3)
        ),
    )
    n = d.size
    pts = rng.uniform(-2.5, 2.5, size=(3 * n, 2))  # r = 3N >= 2N
    G = lift(pts, d).T
    K0 = rng.uniform(-1, 1, size=(n, n))
    K = solve_koopman_ls(G, K0 @ G, ridge=0.0)
    recovery = np.linalg.norm(K - K0) / np.linalg.norm(K0)
    # orthogonality on a genuine spanned-field fit
    sf = SpannedField(d, rng.standard_normal((2, 3)))
    snaps = SnapshotSet(pts, sf.evaluate(pts), "CT")
    model = fit_generator(snaps, d, ridge=0.0)
    A = _system(snaps, d)[1].T
    ortho = np.linalg.norm((A - model.K @ G) @ G.T) / (
        np.linalg.norm(A) * np.linalg.norm(G)
    )
    elapsed = time.time() - t0
    _criterion(
        8,
        "least-squares recovery",
        recovery < 1e-6 and ortho <= 1e-8,
        f"K0 recovery {recovery:.2e} < 1e-6, normal-equation residual {ortho:.2e} <= 1e-8",
        elapsed,
        5.0,
    )


def test_criterion_9_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        fs = tuple(
            ConjLogistic(rng.uniform(-5, 5, m), rng.uniform(0.5, 10, m))
            for _ in range(int(rng.integers(1, 3)))
        )
        d = SillDictionary(m, fs)
        y = rng.uniform(-5, 5, m)
        jac = lift_jacobian(y, d)
        for i in range(m):
            up, dn = y.copy(), y.copy()
            up[i] += h
            dn[i] -= h
            fd = (lift(up, d) - lift(dn, d)) / (2.0 * h)
            # atol floors central-difference roundoff on saturated entries
            gap = np.abs(jac[:, i] - fd) / np.maximum(np.abs(jac[:, i]), 1e-4)
            worst = max(worst, gap.max())
    ok = worst <= 1e-5
    elapsed = time.time() - t0
    _criterion(
        9,
        "dictionary Jacobian vs finite differences",
        ok,
        f"worst relative gap {worst:.2e} <= 1e-5 over 100 draws",
        elapsed,
        1.0,
    )


def _prepare_cli_workspace(root: Path):
    root.mkdir(parents=True, exist_ok=True)
    field = VAN_DER_POL
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(40, 2))
    ct = make_snapshots(field, pts)
    save_snapshots(ct, root / "ct.csv", root / "ct_manifest.json")
    dt = SnapshotSet(pts, pts @ np.array([[0.9, 0.1], [0.0, 0.8]]).T, "DT", dt=0.1)
    save_snapshots(dt, root / "dt.csv", root / "dt_manifest.json")
    d = SillDictionary(
        2,
        (
            ConjLogistic([-0.4, 0.3], [2.0, 3.0]),
            ConjLogistic([0.5, -0.2], [3.0, 2.0]),
        ),
    )
    save_dictionary(d, root / "dict.json")
    dict1d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = -1.0
    save_model(KoopmanModel(K, dict1d, "CT"), root / "ct_model.json")
    incomparable = SillDictionary(
        2,
        (
            ConjLogistic([1.0, 5.0], [2.0, 7.0]),
            ConjLogistic([3.0, 2.0], [4.0, 9.0]),
        ),
    )
    save_dictionary(incomparable, root / "dict_incomparable.json")
    configs = {
        "fit": {
            "snapshots_csv": str(root / "ct.csv"),
            "snapshots_manifest": str(root / "ct_manifest.json"),
            "dictionary": str(root / "dict.json"),
            "ridge": 1e-8,
        },
        "edmd": {
            "snapshots_csv": str(root / "dt.csv"),
            "snapshots_manifest": str(root / "dt_manifest.json"),
            "dictionary": str(root / "dict.json"),
            "ridge": 0.0,
        },
        "predict": {
            "model": str(root / "ct_model.json"),
            "y0": [1.0],
            "horizon": 1.0,
            "dt": 0.01,
        },
        "closure": {
            "m": 2,
            "logistics": [
                {"mu": list(mu), "alpha": list(al)}
                for mu, al in _CLOSURE_FIELD["logistics"]
            ],
            "W": _CLOSURE_FIELD["W"],
            "grid": {
                "box": [list(b) for b in _CLOSURE_FIELD["box"]],
                "points_per_dim": 9,
                "delta": 0.17,
            },
            "alpha_scales": [1, 2],
            "ridge": 0.0,
        },
        "theorem1": {
            "f": {"mu": [0.0, 0.0], "alpha": [2.5, 3.0]},
            "g": {"mu": [1.0, 1.2], "alpha": [3.0, 2.5]},
            "grid": {
                "box": [[-3.0, 4.0], [-3.0, 4.0]],
                "points_per_dim": 8,
                "delta": 0.5,
            },
            "scales": [1, 2, 4, 8],
        },
        "stats": {
            "a_values": [1.0, 2.0],
            "samples": 20000,
            "m_values": [1, 2, 3],
            "rate_a": 2.0,
        },
        "example1": {
            "degrees": [1, 2, 3],
            "fit_range": [-10.0, 10.0],
            "fit_points": 201,
            "sill": {
                "centers": [-1.2, -0.4, 0.4, 1.2],
                "alpha": 4.0,
                "box": [-2.0, 2.0],
                "points": 41,
                "ridge": 1e-8,
            },
        },
        "complete-dictionary": {"dictionary": str(root / "dict_incomparable.json")},
    }
    paths = {}
    for name, cfg in configs.items():
        p = root / f"cfg_{name}.json"
        p.write_text(json.dumps(cfg, indent=2))
        paths[name] = str(p)
    return paths


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    configs = _prepare_cli_workspace(tmp_path / "ws")
    mismatches = []
    for name, cfg in configs.items():
        outs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}_{run}"
            rc = cli_main(
                [name, "--config", cfg, "--out", str(out), "--seed", "123"]
            )
            assert rc == 0, f"{name} exited {rc}"
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.is_file()
                }
            )
        if outs[0] != outs[1]:
            mismatches.append(name)
    elapsed = time.time() - t0
    _criterion(
        10,
        "CLI byte determinism",
        not mismatches,
        f"all {len(configs)} subcommands byte-identical across reruns"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        elapsed,
        120.0,
    )
