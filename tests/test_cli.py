import json
from pathlib import Path

import numpy as np
import pytest

from sillkoop.bench import builtin_fields, make_snapshots
from sillkoop.cli import main
from sillkoop.dictionary import ConjLogistic, SillDictionary, save_dictionary
from sillkoop.regression import KoopmanModel, load_model, save_model, save_snapshots


def _write_config(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def _dictionary_file(tmp_path, name="dict.json"):
    d = SillDictionary(
        2,
        (
            ConjLogistic([-0.4, 0.3], [2.0, 3.0]),
            ConjLogistic([0.5, -0.2], [3.0, 2.0]),
        ),
    )
    path = tmp_path / name
    save_dictionary(d, path)
    return str(path), d


def _ct_snapshot_files(tmp_path):
    field = builtin_fields()[2]  # planar limit cycle
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(40, 2))
    snaps = make_snapshots(field, pts)
    csv_path = tmp_path / "snaps.csv"
    man_path = tmp_path / "snaps_manifest.json"
    save_snapshots(snaps, csv_path, man_path)
    return str(csv_path), str(man_path)


def _run(args):
    return main([str(a) for a in args])


def _tree_bytes(outdir):
    return {
        p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir()) if p.is_file()
    }


def test_fit_writes_model_and_summary(tmp_path):
    csv_path, man_path = _ct_snapshot_files(tmp_path)
    dict_path, d = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "fit.json",
        {
            "snapshots_csv": csv_path,
            "snapshots_manifest": man_path,
            "dictionary": dict_path,
            "ridge": 1e-8,
        },
    )
    out = tmp_path / "out_fit"
    assert _run(["fit", "--config", cfg, "--out", out]) == 0
    model = load_model(out / "model.json")
    assert model.K.shape == (d.size, d.size)
    summary = json.loads((out / "residual_summary.json").read_text())
    assert summary["max_row_norm"] >= summary["mean_row_norm"] >= 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert sorted(manifest["outputs"]) == ["model.json", "residual_summary.json"]


def test_fit_is_byte_deterministic(tmp_path):
    csv_path, man_path = _ct_snapshot_files(tmp_path)
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "fit.json",
        {
            "snapshots_csv": csv_path,
            "snapshots_manifest": man_path,
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["fit", "--config", cfg, "--out", out1]) == 0
    assert _run(["fit", "--config", cfg, "--out", out2]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("y1,y2,d1,d2\n1,2,3,4\n1,2,3\n")
    man = tmp_path / "man.json"
    man.write_text('{"mode": "CT", "dt": null}')
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "fit.json",
        {
            "snapshots_csv": str(bad_csv),
            "snapshots_manifest": str(man),
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert err.count("\n") == 1  # single-line error


def test_fit_missing_key_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path / "fit.json", {"ridge": 0.0})
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "snapshots_csv" in capsys.readouterr().err


def test_edmd_fits_dt_snapshots(tmp_path):
    rng = np.random.default_rng(1)
    Y = rng.uniform(-2, 2, size=(30, 2))
    from sillkoop.regression import SnapshotSet

    snaps = SnapshotSet(Y, Y @ np.array([[0.9, 0.1], [0.0, 0.8]]).T, "DT", dt=0.1)
    csv_path = tmp_path / "dt.csv"
    man_path = tmp_path / "dt_manifest.json"
    save_snapshots(snaps, csv_path, man_path)
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "edmd.json",
        {
            "snapshots_csv": str(csv_path),
            "snapshots_manifest": str(man_path),
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )
    out = tmp_path / "out_edmd"
    assert _run(["edmd", "--config", cfg, "--out", out]) == 0
    assert load_model(out / "model.json").mode == "DT"


def test_edmd_rejects_ct_snapshots(tmp_path):
    csv_path, man_path = _ct_snapshot_files(tmp_path)
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "edmd.json",
        {
            "snapshots_csv": csv_path,
            "snapshots_manifest": man_path,
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )
    assert _run(["edmd", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_fit_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    csv_path, man_path = _ct_snapshot_files(tmp_path)
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "fit.json",
        {
            "snapshots_csv": csv_path,
            "snapshots_manifest": man_path,
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "out"]) == 3
    assert "numerical: SVD did not converge" in capsys.readouterr().err


def test_predict_writes_trajectory(tmp_path):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = -1.0
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(K, d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": 1.0, "dt": 0.01},
    )
    out = tmp_path / "out_predict"
    assert _run(["predict", "--config", cfg, "--out", out]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,y1"
    assert len(lines) == 102
    final = float(lines[-1].split(",")[1])
    assert abs(final - np.exp(-1.0)) < 1e-6
    assert json.loads((out / "predict_summary.json").read_text())["diverged"] is False


def test_predict_divergence_exits_3(tmp_path, capsys):
    d = SillDictionary(1, (ConjLogistic([0.0], [1.0]),))
    K = np.zeros((3, 3))
    K[1, 1] = 1e4
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(K, d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": 50.0, "dt": 0.5},
    )
    out = tmp_path / "out_predict"
    assert _run(["predict", "--config", cfg, "--out", out]) == 3
    assert json.loads((out / "predict_summary.json").read_text())["diverged"] is True
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize("horizon, dt", [(1.0, 1e-320), (1e308, 1e-10)])
def test_predict_non_finite_step_count_exits_2(tmp_path, capsys, horizon, dt):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": horizon, "dt": dt},
    )
    assert _run(["predict", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "bad-input: horizon / dt = inf is not a finite step count" in capsys.readouterr().err


def _closure_config(tmp_path, W=None):
    W = W if W is not None else [[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]]
    return _write_config(
        tmp_path / "closure.json",
        {
            "m": 2,
            "logistics": [
                {"mu": [-1.225, 0.525], "alpha": [7.0, 7.4]},
                {"mu": [0.175, -0.875], "alpha": [7.6, 6.9]},
                {"mu": [-0.525, 1.225], "alpha": [7.2, 7.8]},
            ],
            "W": W,
            "grid": {
                "box": [[-2.8, 2.8], [-2.8, 2.8]],
                "points_per_dim": 9,
                "delta": 0.17,
            },
            "alpha_scales": [1, 2, 4],
            "ridge": 0.0,
        },
    )


def test_closure_reports_monotone_residuals(tmp_path):
    out = tmp_path / "out_closure"
    assert _run(["closure", "--config", _closure_config(tmp_path), "--out", out]) == 0
    lines = (out / "closure.csv").read_text().strip().split("\n")
    assert lines[0] == "scale,residual_max,B"
    residuals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert len(residuals) == 3
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    reports = json.loads((out / "closure_reports.json").read_text())
    assert [r["alpha_scale"] for r in reports] == [1.0, 2.0, 4.0]


def test_closure_zero_weights_zero_bounds(tmp_path):
    cfg = _closure_config(tmp_path, W=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = tmp_path / "out_closure0"
    assert _run(["closure", "--config", cfg, "--out", out]) == 0
    reports = json.loads((out / "closure_reports.json").read_text())
    assert all(r["B"] == 0.0 for r in reports)


def test_closure_bound_violation_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "violating.json",
        {
            "m": 2,
            "logistics": [
                {"mu": [-1.40, 0.28], "alpha": [4.6, 4.4]},
                {"mu": [0.28, -0.84], "alpha": [5.0, 4.3]},
                {"mu": [-0.28, 0.84], "alpha": [4.4, 4.8]},
            ],
            "W": [[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]],
            "grid": {
                "box": [[-2.8, 2.8], [-2.8, 2.8]],
                "points_per_dim": 6,
                "delta": 0.2,
            },
            "alpha_scales": [4],
            "ridge": 0.0,
        },
    )
    assert _run(["closure", "--config", cfg, "--out", tmp_path / "o"]) == 3
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize("a", [0, -2])
def test_closure_nonpositive_nu_clip_exits_2(tmp_path, capsys, a):
    cfg = json.loads(Path(_closure_config(tmp_path)).read_text())
    path = _write_config(tmp_path / "clip.json", {**cfg, "nu_clip_a": a})
    assert _run(["closure", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "nu clip" in capsys.readouterr().err


def test_closure_missing_grid_rejected(tmp_path, capsys):
    cfg = json.loads(Path(_closure_config(tmp_path)).read_text())
    del cfg["grid"]
    path = _write_config(tmp_path / "noGrid.json", cfg)
    assert _run(["closure", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "grid" in capsys.readouterr().err


def _theorem1_config(tmp_path, g_mu, delta=0.5):
    return _write_config(
        tmp_path / "thm.json",
        {
            "f": {"mu": [0.0, 0.0], "alpha": [2.5, 3.0]},
            "g": {"mu": g_mu, "alpha": [3.0, 2.5]},
            "grid": {
                "box": [[-3.0, 4.0], [-3.0, 4.0]],
                "points_per_dim": 8,
                "delta": delta,
            },
            "scales": [1, 2, 4, 8],
        },
    )


def test_theorem1_reports_negative_slope(tmp_path):
    out = tmp_path / "out_thm"
    cfg = _theorem1_config(tmp_path, [1.0, 1.2])
    assert _run(["theorem1", "--config", cfg, "--out", out]) == 0
    fit = json.loads((out / "decay_fit.json").read_text())
    assert fit["slope"] < 0
    lines = (out / "decay.csv").read_text().strip().split("\n")
    assert lines[0] == "scale,max_error"
    assert len(lines) == 5


def test_theorem1_incomparable_pair_rejected(tmp_path, capsys):
    cfg = _theorem1_config(tmp_path, [1.0, -1.0])
    assert _run(["theorem1", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "dominance order" in capsys.readouterr().err


def test_theorem1_zero_delta_rejected(tmp_path, capsys):
    cfg = _theorem1_config(tmp_path, [1.0, 1.2], delta=0.0)
    assert _run(["theorem1", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "delta" in capsys.readouterr().err


def _stats_config(tmp_path):
    return _write_config(
        tmp_path / "stats.json",
        {
            "a_values": [1.0, 2.0, 4.0, 8.0],
            "quad_points": 200,
            "samples": 20000,
            "m_values": [1, 2, 3, 4, 5, 6],
            "rate_a": 2.0,
        },
    )


def test_stats_outputs(tmp_path):
    out = tmp_path / "out_stats"
    assert _run(["stats", "--config", _stats_config(tmp_path), "--out", out]) == 0
    moments = (out / "moments.csv").read_text().strip().split("\n")
    assert len(moments) == 5
    for ln in moments[1:]:
        assert abs(float(ln.split(",")[1]) - 0.5) < 1e-3
    rates = (out / "error_rates.csv").read_text().strip().split("\n")
    row_m3 = rates[3].split(",")
    assert float(row_m3[1]) == 1.0 / 16.0
    assert float(row_m3[2]) == 1.0 / 128.0
    conj = (out / "conjunctive.csv").read_text().strip().split("\n")
    assert len(conj) == 7


def test_stats_seeded_reruns_identical(tmp_path):
    cfg = _stats_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert _run(["stats", "--config", cfg, "--out", out1, "--seed", 7]) == 0
    assert _run(["stats", "--config", cfg, "--out", out2, "--seed", 7]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


@pytest.mark.parametrize(
    "settings, word",
    [
        pytest.param({"samples": 0, "m_values": [1]}, "sample", id="zero-samples"),
        # rejected even when nothing is sampled
        pytest.param({"samples": 0}, "sample", id="zero-samples-empty"),
        pytest.param({"samples": -3}, "sample", id="negative-samples-empty"),
        pytest.param({"quad_points": 5}, "quad_points", id="few-quad-points-empty"),
    ],
)
def test_stats_zero_samples_exits_2(tmp_path, capsys, settings, word):
    base = {"a_values": [], "quad_points": 200, "samples": 10, "m_values": []}
    cfg = _write_config(tmp_path / "stats.json", {**base, **settings})
    assert _run(["stats", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert word in capsys.readouterr().err


def _example1_config(tmp_path, degrees=(3,)):
    return _write_config(
        tmp_path / "ex1.json",
        {
            "degrees": list(degrees),
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
    )


def test_example1_records_growth_slope(tmp_path):
    out = tmp_path / "out_ex1"
    assert _run(["example1", "--config", _example1_config(tmp_path), "--out", out]) == 0
    summary = json.loads((out / "example1_summary.json").read_text())
    assert abs(summary["growth_slopes"]["3"] - 4.0) < 0.05
    assert np.isfinite(summary["sill_residual_max"])
    assert summary["sill_residual_max"] > 0


def test_example1_missing_degrees_rejected(tmp_path, capsys):
    cfg = json.loads(Path(_example1_config(tmp_path)).read_text())
    del cfg["degrees"]
    path = _write_config(tmp_path / "bad.json", cfg)
    assert _run(["example1", "--config", path, "--out", tmp_path / "o"]) == 2
    assert "degrees" in capsys.readouterr().err


def test_complete_dictionary_closes_pairs(tmp_path):
    d = SillDictionary(
        2,
        (
            ConjLogistic([1.0, 5.0], [2.0, 7.0]),
            ConjLogistic([3.0, 2.0], [4.0, 9.0]),
        ),
    )
    dict_path = tmp_path / "d.json"
    save_dictionary(d, dict_path)
    cfg = _write_config(tmp_path / "cd.json", {"dictionary": str(dict_path)})
    out = tmp_path / "out_cd"
    assert _run(["complete-dictionary", "--config", cfg, "--out", out]) == 0
    completed = json.loads((out / "dictionary_completed.json").read_text())
    assert len(completed["logistics"]) == 3
    order = json.loads((out / "order_check.json").read_text())
    assert order["before"]["incomparable_pairs"] == [[0, 1]]
    assert order["after"]["n_logistic"] == 3


def test_manifest_records_config_hash_and_versions(tmp_path):
    cfg_path = _stats_config(tmp_path)
    out = tmp_path / "out"
    assert _run(["stats", "--config", cfg_path, "--out", out, "--seed", 3]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["rng"] == "pcg64"
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) == {"sillkoop", "numpy", "scipy", "python"}


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert _run(["stats", "--config", tmp_path / "missing.json", "--out", tmp_path]) == 2
    assert "bad-input" in capsys.readouterr().err
