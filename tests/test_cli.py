import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import expit

from sillkoop import cli, dictionary, stats
from sillkoop.bench import make_snapshots
from sillkoop.cli import main
from sillkoop.dictionary import ConjLogistic, SillDictionary, save_dictionary
from sillkoop.errors import QuadratureError
from sillkoop.regression import (
    MAX_STEPS,
    KoopmanModel,
    SnapshotSet,
    load_model,
    load_snapshots,
    residual,
    save_model,
    save_snapshots,
)

from reference_fields import VAN_DER_POL


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
    field = VAN_DER_POL
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
    # K round-trips through JSON exactly, so the library's residual of the
    # written model on the written snapshots is the summarised one, bit for bit
    R = residual(model, load_snapshots(csv_path, man_path))
    norms = np.linalg.norm(R, axis=1)
    assert summary == {
        "max_row_norm": float(norms.max()),
        "mean_row_norm": float(norms.mean()),
        "per_function_max": np.abs(R).max(axis=0).tolist(),
        "snapshots": 40,
    }
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


@pytest.mark.parametrize(
    "manifest, message",
    [
        pytest.param('{"mode": "DT", "dt": true}', "key 'dt' must be a number", id="bool-dt"),
        pytest.param('{"mode": "DT", "dt": "0.5"}', "key 'dt' must be a number", id="string-dt"),
        pytest.param('{"mode": "DT", "dt": 1e999}', "positive finite dt", id="infinite-dt"),
        pytest.param('{"mode": 1, "dt": 0.5}', "key 'mode' must be str", id="number-mode"),
        pytest.param('[{"mode": "DT", "dt": 0.5}]', "must be a JSON object", id="list"),
    ],
)
def test_edmd_bad_snapshot_manifest_exits_2(tmp_path, capsys, manifest, message):
    Y = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    csv_path, man_path = tmp_path / "dt.csv", tmp_path / "dt_manifest.json"
    save_snapshots(SnapshotSet(Y, 0.9 * Y, "DT", dt=0.5), csv_path, man_path)
    man_path.write_text(manifest)
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
    out = tmp_path / "out"
    assert _run(["edmd", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad-input: " in err and message in err and err.count("\n") == 1
    assert not (out / "model.json").exists()


def _fit_config(tmp_path, csv_path, man_path, name="fit.json"):
    dict_path, _ = _dictionary_file(tmp_path)
    return _write_config(
        tmp_path / name,
        {
            "snapshots_csv": str(csv_path),
            "snapshots_manifest": str(man_path),
            "dictionary": dict_path,
            "ridge": 0.0,
        },
    )


_M3_DICTIONARY = json.dumps(
    {"m": 3, "logistics": [{"mu": [0.0, 0.0, 0.0], "alpha": [2.0, 2.0, 2.0]}]}
)


@pytest.mark.parametrize(
    "key, text, message",
    [
        pytest.param(
            "snapshots_csv", "y1,y2,d1,d2\n", "{path}: no snapshot rows after the header",
            id="csv-header-only",
        ),
        pytest.param(
            "snapshots_csv", "\n \n", "{path}: line 1: empty snapshot file", id="csv-blank"
        ),
        pytest.param(
            "dictionary", _M3_DICTIONARY, "snapshots have m=2, dictionary has m=3",
            id="dictionary-m3",
        ),
        pytest.param(None, "[1]", "config must be a JSON object", id="config-list"),
    ],
)
def test_fit_bad_input_file_exits_2(tmp_path, capsys, key, text, message):
    # the file the config names at key, or the config itself, holds text
    cfg = _CONFIGS["fit"](tmp_path)
    path = json.loads(Path(cfg).read_text())[key] if key else cfg
    Path(path).write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    assert _run(["fit", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"sillkoop: bad-input: {message.format(path=path)}\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda obj: [obj], id="list"),
        pytest.param(lambda obj: {k: v for k, v in obj.items() if k != "mode"}, id="no-mode"),
    ],
)
def test_model_file_not_an_object_with_its_keys_exits_2(tmp_path, capsys, edit):
    cfg = _predict_config(tmp_path)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(edit(json.loads(model_path.read_text()))))
    out = tmp_path / "o"
    assert _run(["predict", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"sillkoop: bad-input: {model_path}: must be a JSON object with "
        "'mode', 'ridge', 'dictionary', 'K'\n"
    )
    assert not list(out.iterdir())


def test_dictionary_file_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps([{"m": 1, "logistics": [{"mu": [0.0], "alpha": [2.0]}]}]))
    cfg = _write_config(tmp_path / "cd.json", {"dictionary": str(path)})
    out = tmp_path / "o"
    assert _run(["complete-dictionary", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == f"sillkoop: bad-input: {path}: must be a JSON object with 'm', 'logistics'\n"
    assert not list(out.iterdir())


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

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "out"]) == 3
    assert "numerical: SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("ridge", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_fit_non_finite_ridge_exits_2(tmp_path, capsys, ridge):
    csv_path, man_path = _ct_snapshot_files(tmp_path)
    dict_path, _ = _dictionary_file(tmp_path)
    cfg = _write_config(
        tmp_path / "fit.json",
        {
            "snapshots_csv": csv_path,
            "snapshots_manifest": man_path,
            "dictionary": dict_path,
            "ridge": ridge,  # written as the JSON extensions Infinity / NaN
        },
    )
    out = tmp_path / "out"
    assert _run(["fit", "--config", cfg, "--out", out]) == 2
    assert "bad-input: config key 'ridge' must be finite" in capsys.readouterr().err
    assert not (out / "model.json").exists()


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


def test_predict_past_step_limit_exits_2(tmp_path, capsys):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": MAX_STEPS + 1, "dt": 1.0},
    )
    out = tmp_path / "out"
    assert _run(["predict", "--config", cfg, "--out", out]) == 2
    assert f"exceeds the limit of {MAX_STEPS}" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_predict_past_step_limit_prints_the_count_short(tmp_path, capsys):
    # horizon 2 at dt 1e-300 is a 301-digit step count
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": 2.0, "dt": 1e-300},
    )
    assert _run(["predict", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"sillkoop: bad-input: horizon / dt = 2e+300 steps exceeds the limit of {MAX_STEPS}\n"
    )


def test_predict_non_finite_y0_exits_2(tmp_path, capsys):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [float("nan")], "horizon": 1.0, "dt": 0.1},
    )
    out = tmp_path / "out"
    assert _run(["predict", "--config", cfg, "--out", out]) == 2
    assert "bad-input: y0 contains non-finite entries" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_model_with_infinite_ridge_rejected(tmp_path, capsys):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    with pytest.raises(ValueError, match="ridge must be finite"):
        KoopmanModel(np.zeros((3, 3)), d, "CT", float("inf"))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    obj = json.loads(model_path.read_text())
    obj["ridge"] = float("inf")  # written as the JSON extension Infinity
    model_path.write_text(json.dumps(obj))
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": 1.0, "dt": 0.1},
    )
    out = tmp_path / "out"
    assert _run(["predict", "--config", cfg, "--out", out]) == 2
    assert "bad-input: ridge must be finite" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_cli_import_loads_no_scipy_subpackage_and_predict_still_agrees(tmp_path):
    # a fresh interpreter, as the console script starts: importing the CLI
    # must not load scipy.integrate, scipy.special or scipy.linalg (together
    # most of a second), and predict, with its own expm, loads no scipy
    # module at all
    d = SillDictionary(
        2, (ConjLogistic([-0.4, 0.3], [2.0, 3.0]), ConjLogistic([0.5, -0.2], [3.0, 2.0]))
    )
    K = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 5)) - 2.0 * np.eye(5)
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(K, d, "CT"), model_path)
    y0, horizon, dt = np.array([0.3, -0.7]), 2.0, 0.05
    cfg = _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": y0.tolist(), "horizon": horizon, "dt": dt},
    )
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "import sillkoop.cli\n"
        "print(sorted({'scipy.integrate', 'scipy.special', 'scipy.linalg'} & set(sys.modules)))\n"
        f"code = sillkoop.cli.main(['predict', '--config', {cfg!r}, '--out', {str(out)!r}])\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
    # the propagator and lift as they were computed with expit and expm
    z = np.concatenate([[1.0], y0, [np.prod(expit(f.alpha * (y0 - f.mu))) for f in d.logistics]])
    step = expm(dt * K)
    ref = [y0]
    for _ in range(round(horizon / dt)):
        z = step @ z
        ref.append(z[1:3])
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 0], dt * np.arange(len(ref)), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rows[:, 1:], ref, rtol=0.0, atol=1e-9)


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
    ],
)
def test_stats_zero_samples_exits_2(tmp_path, capsys, settings, word):
    base = {"a_values": [], "samples": 10, "m_values": []}
    cfg = _write_config(tmp_path / "stats.json", {**base, **settings})
    assert _run(["stats", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings",
    [
        pytest.param({"a_values": [1.0, 0.0]}, id="zero-radius"),
        pytest.param({"a_values": [1.0, float("inf")]}, id="infinite-radius"),
        pytest.param({"rate_a": -1.0}, id="negative-rate-a"),
        pytest.param({"rate_a": float("nan")}, id="nan-rate-a"),
        # outside [MIN_RADIUS, MAX_RADIUS] some intermediate is no finite normal double
        pytest.param({"a_values": [1.0, 1e81]}, id="radius-above-range"),
        pytest.param({"a_values": [1e-60]}, id="radius-below-range"),
        pytest.param({"rate_a": 1e78}, id="rate-a-above-range"),
        pytest.param({"m_values": [1, 0]}, id="zero-m"),
        pytest.param({"m_values": [1.5, 2]}, id="fractional-m"),
        pytest.param({"rate_a": 10**400}, id="rate-a-beyond-float-range"),
        pytest.param({"samples": stats.MAX_SAMPLES + 1}, id="samples-above-limit"),
        pytest.param({"samples": 10**21}, id="samples-beyond-int64"),
        pytest.param({"m_values": [1, stats.MAX_M + 1]}, id="m-above-limit"),
        pytest.param({"m_values": [10**21]}, id="m-beyond-int64"),
        pytest.param(
            {"samples": stats.MAX_SAMPLES, "m_values": [stats.MAX_M]},
            id="work-at-both-count-limits",
        ),
        # 2 * 500 + 1 factors per sample: the error term counts
        pytest.param(
            {"samples": stats.MAX_SAMPLE_FACTORS // 1001 + 1, "m_values": [1, 500]},
            id="work-just-above-limit",
        ),
    ],
)
def test_stats_bad_config_exits_2_before_sampling(tmp_path, monkeypatch, capsys, settings):
    def computed(*args, **kwargs):
        raise AssertionError("stats computed before its config was checked")

    # quadrature and Monte Carlo both run through these two
    monkeypatch.setattr(stats, "_lotus", computed)
    monkeypatch.setattr(stats, "_mc_products", computed)
    base = {"a_values": [1.0], "samples": 10, "m_values": [1, 2]}
    cfg = _write_config(tmp_path / "stats.json", {**base, **settings})
    out = tmp_path / "o"
    assert _run(["stats", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad-input" in err and err.count("\n") == 1
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "radii, samples",
    [
        # about 15 ns per sample and radius: hours of draws, not minutes
        pytest.param(11, 10**9, id="11-radii-at-1e9"),
        pytest.param(1000, 10**9, id="1000-radii-at-1e9"),
        pytest.param(100_001, 100_000, id="just-above-limit"),
    ],
)
def test_stats_moment_sweep_work_is_refused_before_any_draw(
    tmp_path, monkeypatch, capsys, radii, samples
):
    computed = _fail_with(AssertionError("stats computed before its config was checked"))
    monkeypatch.setattr(cli, "moment_sweep", computed)
    monkeypatch.setattr(stats, "_mc_products", computed)
    cfg = {"a_values": [1.0] * radii, "samples": samples, "m_values": [1]}
    out = tmp_path / "o"
    assert _run(["stats", "--config", _write_config(tmp_path / "stats.json", cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sillkoop: bad-input: config key 'a_values'") and err.count("\n") == 1
    assert not list(out.iterdir())


def test_stats_unresolved_quadrature_exits_3(tmp_path, monkeypatch, capsys):
    # a logistic that swings hundreds of times over the support is beyond
    # both Gauss-Legendre rules, so the moment sweep stops before any CSV
    monkeypatch.setattr(stats, "stable_sigmoid", lambda z: 0.5 + 0.5 * np.sin(1e3 * z))
    out = tmp_path / "o"
    assert _run(["stats", "--config", _stats_config(tmp_path), "--out", out]) == 3
    assert "numerical: quadrature on" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def _fail_with(exc):
    def failing(*args, **kwargs):
        raise exc

    return failing


@pytest.mark.parametrize(
    "patches, code, word",
    [
        # the error table runs on the worker thread
        pytest.param(
            {"expected_error_rates": ValueError("worker refused")}, 2, "bad-input: worker refused",
            id="worker-value-error",
        ),
        # the moment sweep runs on the calling thread
        pytest.param(
            {"moment_sweep": QuadratureError("sweep diverged")}, 3, "numerical: sweep diverged",
            id="main-quadrature-error",
        ),
        # when both fail, the calling thread's error is the one reported
        pytest.param(
            {
                "expected_error_rates": ValueError("worker refused"),
                "mc_conjunctive_table": QuadratureError("table diverged"),
            },
            3, "numerical: table diverged",
            id="both-fail-main-wins",
        ),
    ],
)
def test_stats_thread_failure_exits_cleanly(tmp_path, monkeypatch, capsys, patches, code, word):
    for name, exc in patches.items():
        monkeypatch.setattr(cli, name, _fail_with(exc))
    threads = threading.active_count()
    out = tmp_path / "o"
    assert _run(["stats", "--config", _stats_config(tmp_path), "--out", out]) == code
    err = capsys.readouterr().err
    assert err == f"sillkoop: {word}\n"
    assert not list(out.glob("*.csv"))
    assert not (out / "run_manifest.json").exists()
    assert threading.active_count() == threads


def test_stats_csvs_equal_serial_library_calls(tmp_path):
    # the threaded command writes exactly what one thread calling the
    # library in order writes, even when the interpreter switches threads
    # every few microseconds
    cfg = json.loads(Path(_stats_config(tmp_path)).read_text())
    out, ref = tmp_path / "cmd", tmp_path / "ref"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _run(["stats", "--config", _stats_config(tmp_path), "--out", out, "--seed", 9]) == 0
    finally:
        sys.setswitchinterval(interval)
    ref.mkdir()
    a, samples, ms = cfg["rate_a"], cfg["samples"], cfg["m_values"]
    moments = stats.moment_sweep(cfg["a_values"], samples, 9)
    (ref / "moments.csv").write_text(
        "a,expectation,variance,quad_error,mc_expectation,mc_stderr,samples,seed\n"
        + "".join(
            f"{r.a!r},{r.expectation!r},{r.variance!r},{r.quad_error!r},"
            f"{r.mc_expectation!r},{r.mc_stderr!r},{r.samples},{r.seed}\n"
            for r in moments
        )
    )
    rates = stats.expected_error_rates(ms, a, samples=samples, seed=9)
    (ref / "error_rates.csv").write_text(
        "m,rate_linear,rate_bilinear,mc_linear,mc_bilinear\n"
        + "".join(
            f"{r.m},{r.rate_linear!r},{r.rate_bilinear!r},{r.mc_linear!r},{r.mc_bilinear!r}\n"
            for r in rates
        )
    )
    conj = stats.mc_conjunctive_table(ms, a, samples, 9 + 1000)
    (ref / "conjunctive.csv").write_text(
        "m,estimate,stderr,bound\n"
        + "".join(f"{m},{est!r},{se!r},{2.0**-m!r}\n" for m, (est, se) in zip(ms, conj))
    )
    for name in ("moments.csv", "error_rates.csv", "conjunctive.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_stats_ignores_a_quad_points_key(tmp_path):
    # the quadrature rule is fixed, so a config that still sets the removed
    # quad_points key, to any value, writes the bytes of one that does not
    cfg = json.loads(Path(_stats_config(tmp_path)).read_text())
    written = []
    for quad_points in (None, 5, 200, 10**7):
        variant = cfg if quad_points is None else {**cfg, "quad_points": quad_points}
        path = _write_config(tmp_path / f"stats_{quad_points}.json", variant)
        out = tmp_path / f"out_{quad_points}"
        assert _run(["stats", "--config", path, "--out", out, "--seed", 3]) == 0
        names = ("moments.csv", "error_rates.csv", "conjunctive.csv")
        written.append({n: (out / n).read_bytes() for n in names})
    assert all(w == written[0] for w in written[1:])


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


@pytest.mark.parametrize("degrees", [[1.5, 2], [True, 2], [0, 2]], ids=["float", "bool", "zero"])
def test_example1_bad_degree_exits_2(tmp_path, capsys, degrees):
    out = tmp_path / "o"
    path = _example1_config(tmp_path, degrees)
    assert _run(["example1", "--config", path, "--out", out]) == 2
    assert "bad-input: config key 'degrees[0]'" in capsys.readouterr().err
    assert not (out / "example1_poly.csv").exists()


@pytest.mark.parametrize("key", [["fit_range"], ["sill", "box"]], ids=["fit-range", "box"])
def test_example1_interval_needs_exactly_two_entries(tmp_path, capsys, key):
    cfg = json.loads(Path(_example1_config(tmp_path)).read_text())
    target = cfg if len(key) == 1 else cfg["sill"]
    target[key[-1]] = target[key[-1]] + [5.0]
    out = tmp_path / "o"
    bad = _write_config(tmp_path / "bad.json", cfg)
    assert _run(["example1", "--config", bad, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config key '{'.'.join(key)}' must be [lo, hi], got 3 entries" in err
    assert err.count("\n") == 1
    assert not list(out.iterdir())


def _predict_config(tmp_path):
    d = SillDictionary(1, (ConjLogistic([50.0], [1.0]),))
    model_path = tmp_path / "model.json"
    save_model(KoopmanModel(np.zeros((3, 3)), d, "CT"), model_path)
    return _write_config(
        tmp_path / "predict.json",
        {"model": str(model_path), "y0": [1.0], "horizon": 1.0, "dt": 0.1},
    )


def _edmd_config(tmp_path):
    Y = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    csv_path, man_path = tmp_path / "dt.csv", tmp_path / "dt_manifest.json"
    save_snapshots(SnapshotSet(Y, 0.9 * Y, "DT", dt=0.5), csv_path, man_path)
    return _fit_config(tmp_path, csv_path, man_path, "edmd.json")


_CONFIGS = {
    "fit": lambda tmp_path: _fit_config(tmp_path, *_ct_snapshot_files(tmp_path)),
    "edmd": _edmd_config,
    "predict": _predict_config,
    "closure": _closure_config,
    "theorem1": lambda tmp_path: _theorem1_config(tmp_path, [1.0, 1.2]),
    "stats": _stats_config,
    "example1": _example1_config,
    "complete-dictionary": lambda tmp_path: _write_config(
        tmp_path / "cd.json", {"dictionary": _dictionary_file(tmp_path)[0]}
    ),
}

# the last library call each command makes
_LAST_CALLS = {
    "fit": "_fit",
    "edmd": "_fit",
    "predict": "predict_ct",
    "closure": "closure_experiment",
    "theorem1": "product_approx_decay",
    "stats": "mc_conjunctive_table",
    "example1": "_fit",
    "complete-dictionary": "check_total_order",
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_failed_last_call_writes_nothing(tmp_path, monkeypatch, capsys, command):
    # a command returns its artifacts and main writes them, so a failure in
    # its last library call leaves an empty out directory
    assert _run([command, "--config", _CONFIGS[command](tmp_path), "--out", tmp_path / "ok"]) == 0
    monkeypatch.setattr(cli, _LAST_CALLS[command], _fail_with(QuadratureError("late failure")))
    out = tmp_path / "o"
    assert _run([command, "--config", _CONFIGS[command](tmp_path), "--out", out]) == 3
    assert capsys.readouterr().err == "sillkoop: numerical: late failure\n"
    assert not list(out.iterdir())


def test_command_bug_keeps_its_traceback(tmp_path, monkeypatch, capsys):
    # exit 2 means bad input: an exception no input raises is a bug, and
    # main lets it propagate rather than print it as bad input
    monkeypatch.setitem(cli._COMMANDS, "fit", _fail_with(TypeError("a bug")))
    out = tmp_path / "o"
    with pytest.raises(TypeError, match="a bug"):
        _run(["fit", "--config", _CONFIGS["fit"](tmp_path), "--out", out])
    assert capsys.readouterr().err == ""
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "held, left",
    [
        # a temp name held by a directory fails before the first rename
        ("residual_summary.json.tmp", ["residual_summary.json.tmp"]),
        # an artifact name held by a directory fails after model.json is renamed
        ("residual_summary.json", ["model.json", "residual_summary.json"]),
    ],
    ids=["temp-name", "artifact-name"],
)
def test_failed_write_leaves_no_manifest_or_temp(tmp_path, capsys, held, left):
    out = tmp_path / "o"
    (out / held).mkdir(parents=True)
    assert _run(["fit", "--config", _CONFIGS["fit"](tmp_path), "--out", out]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == left


def _mutated_config(tmp_path, command, path, value):
    """The command's test config with the entry at path set to value."""
    cfg = json.loads(Path(_CONFIGS[command](tmp_path)).read_text())
    *parents, last = path
    target = cfg
    for key in parents:
        target = target[key]
    target[last] = value
    return _write_config(tmp_path / "bad.json", cfg)


@pytest.mark.parametrize(
    "command, path, value",
    [
        pytest.param("closure", ["alpha_scales"], [True, "2", 4], id="closure-scales"),
        pytest.param("closure", ["logistics", 0, "mu"], ["-1.225", 0.525], id="closure-mu"),
        pytest.param("closure", ["logistics", 2, "alpha", 1], True, id="closure-alpha"),
        pytest.param("closure", ["W", 0, 0], "0.8", id="closure-W"),
        pytest.param("closure", ["grid", "box", 1, 0], "-2.8", id="closure-box"),
        pytest.param("theorem1", ["scales"], [True, "2", 4, 8], id="theorem1-scales"),
        pytest.param("theorem1", ["g", "mu"], ["1.0", 1.2], id="theorem1-mu"),
        pytest.param("example1", ["fit_range"], ["-10", True], id="example1-fit-range"),
        pytest.param("example1", ["sill", "centers", 0], "-1.2", id="example1-centers"),
        pytest.param("example1", ["sill", "box"], [False, 2.0], id="example1-box"),
        pytest.param("predict", ["y0"], ["1.0"], id="predict-y0"),
    ],
)
def test_string_or_bool_in_a_number_list_exits_2(tmp_path, capsys, command, path, value):
    # every config number, scalar or nested, passes the one rule _need applies
    out = tmp_path / "o"
    bad = _mutated_config(tmp_path, command, path, value)
    assert _run([command, "--config", bad, "--out", out]) == 2
    assert "bad-input: config key" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "command, path, value, code, word",
    [
        # radii whose sliver or squared error term overflows wrote inf and nan
        pytest.param("stats", ["a_values"], [1e150], 2, "interval radius", id="stats-radius-1e150"),
        pytest.param("stats", ["a_values"], [1e200], 2, "interval radius", id="stats-radius-1e200"),
        pytest.param("stats", ["rate_a"], 1e200, 2, "interval radius", id="stats-rate-a-1e200"),
        # an interval or lattice box needs lo < hi and a finite width hi - lo
        pytest.param(
            "example1", ["fit_range"], [0.0, float("inf")], 2, "finite width",
            id="example1-infinite-fit-range",
        ),
        pytest.param(
            "closure", ["grid", "box", 0], [-2.0, float("inf")], 2, "finite width",
            id="closure-infinite-box",
        ),
        # an empty or reversed interval is refused, as a lattice box's always was
        pytest.param(
            "example1", ["fit_range"], [1.0, 1.0], 2, "lo < hi", id="example1-empty-fit-range"
        ),
        pytest.param(
            "example1", ["sill", "box"], [2.0, -2.0], 2, "lo < hi", id="example1-reversed-box"
        ),
        pytest.param(
            "theorem1", ["grid", "delta"], float("nan"), 2, "'grid.delta'", id="theorem1-nan-delta"
        ),
        pytest.param("closure", ["grid", "delta"], 0.0, 2, "'grid.delta'", id="closure-zero-delta"),
        # a target n y^(n+1) beyond the float range is refused before the fit
        pytest.param("example1", ["degrees"], [100], 2, "overflows", id="example1-degree-100"),
        pytest.param(
            "example1", ["fit_range"], [-10.0, 1e200], 2, "overflows", id="example1-fit-range-1e200"
        ),
        # a sigmoid argument beyond the float range is a saturated 0 or 1
        pytest.param("example1", ["sill", "centers", 0], 1e308, 0, "", id="example1-center-1e308"),
        pytest.param(
            "example1", ["sill", "centers", 0], -1e308, 0, "",
            id="example1-center--1e308",
        ),
        pytest.param("closure", ["logistics", 0, "mu", 0], 1e308, 0, "", id="closure-mu-1e308"),
        pytest.param("closure", ["logistics", 0, "mu", 0], -1e308, 0, "", id="closure-mu--1e308"),
        pytest.param("theorem1", ["grid", "box", 0, 1], 1e308, 0, "", id="theorem1-box-1e308"),
        # a box bound whose square is past the float range is a non-finite target
        pytest.param(
            "example1", ["sill", "box"], [-2.0, 1e200], 2, "non-finite", id="example1-box-1e200"
        ),
        pytest.param(
            "example1", ["sill", "box"], [-2.0, 1e308], 2, "non-finite", id="example1-box-1e308"
        ),
        pytest.param(
            "example1", ["sill", "box"], [-1e308, 2.0], 2, "non-finite", id="example1-box--1e308"
        ),
        # the input passes every check, but the fit's residual norm is inf
        pytest.param(
            "example1", ["sill", "alpha"], 1e200, 3, "not finite", id="example1-alpha-1e200"
        ),
        pytest.param(
            "example1", ["sill", "alpha"], 1e308, 3, "not finite", id="example1-alpha-1e308"
        ),
        # the manifest copies the config, keys that no command reads included
        pytest.param("predict", ["note"], float("nan"), 2, "NaN", id="predict-ignored-nan"),
        pytest.param("stats", ["note"], [float("inf")], 2, "NaN", id="stats-ignored-inf"),
        # a steepness times a scale past the float range is refused up front
        pytest.param(
            "closure", ["alpha_scales"], [1, 1e308], 2, "float range", id="closure-scale-1e308"
        ),
        # an empty scale list is refused as empty, not as non-positive
        pytest.param(
            "closure", ["alpha_scales"], [], 2, "alpha_scales must not be empty",
            id="closure-scales-empty",
        ),
        pytest.param(
            "closure", ["logistics", 0, "alpha"], [1e308, 7.4], 2, "float range",
            id="closure-alpha-1e308",
        ),
        pytest.param(
            "theorem1", ["scales"], [1, 2, 1e308], 2, "float range", id="theorem1-scale-1e308"
        ),
        pytest.param(
            "theorem1", ["f", "alpha"], [1e308, 3.0], 2, "float range", id="theorem1-alpha-1e308"
        ),
        # finite inputs whose least-squares solution overflows
        pytest.param("closure", ["W", 0, 0], 1e308, 3, "overflows", id="closure-W-1e308"),
        # finite weights whose absolute row sum, the field's bound, is not
        pytest.param(
            "closure", ["W", 0], [1e308, 1e308, 1e308], 2, "row sum", id="closure-W-row-sum"
        ),
        # a finite field whose steepness-weighted forms and bounds overflow
        pytest.param("closure", ["W", 0], [5e307, 0.0, 0.0], 3, "not finite", id="closure-W-5e307"),
        # a lattice count too large to print is refused in a short line
        pytest.param(
            "closure", ["grid", "points_per_dim"], 10**400, 2, "above the limit",
            id="closure-points-10^400",
        ),
        pytest.param(
            "theorem1", ["grid", "points_per_dim"], 10**400, 2, "above the limit",
            id="theorem1-points-10^400",
        ),
        # a box with a row count other than m is refused before any lattice is built
        pytest.param(
            "closure", ["grid", "box"], [[-2.8, 2.8]] * 3000, 2, "grid.box",
            id="closure-box-3000-rows",
        ),
        pytest.param(
            "closure", ["grid", "box"], [[-2.8, 2.8]] * 3, 2, "grid.box", id="closure-box-3-rows"
        ),
        pytest.param(
            "theorem1", ["grid", "box"], [[-3.0, 4.0]] * 3, 2, "grid.box", id="theorem1-box-3-rows"
        ),
        # f and g of different lengths are named as such
        pytest.param(
            "theorem1", ["g"], {"mu": [1.0, 1.2, 0.5], "alpha": [3.0, 2.5, 2.0]}, 2,
            "'f' and 'g'", id="theorem1-g-length-3",
        ),
        # a logistic the library refuses is named by its key
        pytest.param(
            "theorem1", ["f", "alpha"], [0.0, 3.0], 2, "config key 'f'", id="theorem1-f-alpha-0"
        ),
        pytest.param(
            "theorem1", ["f", "mu"], [0.0, 0.0, 0.5], 2, "config key 'f'",
            id="theorem1-f-mu-length-3",
        ),
        # a sample count above the grid limit is refused before np.linspace
        pytest.param(
            "example1", ["fit_points"], 1_000_001, 2, "at most", id="example1-fit-points-1000001"
        ),
        pytest.param(
            "example1", ["sill", "points"], 1_000_001, 2, "at most",
            id="example1-sill-points-1000001",
        ),
        # a refusal names its key by the full path, a list entry inside the quotes
        pytest.param(
            "closure", ["grid", "box", 0], [2.0, -2.0], 2, "'grid.box[0]'", id="closure-box-reversed"
        ),
        pytest.param(
            "closure", ["grid", "points_per_dim"], "9", 2, "'grid.points_per_dim'",
            id="closure-points-string",
        ),
        pytest.param("example1", ["sill", "alpha"], "4", 2, "'sill.alpha'", id="example1-alpha-string"),
        pytest.param(
            "example1", ["sill", "centers", 1], "x", 2, "'sill.centers[1]'",
            id="example1-centers-string",
        ),
        pytest.param(
            "closure", ["alpha_scales", 1], "2", 2, "'alpha_scales[1]'", id="closure-scale-string"
        ),
        # refusals that the library would word without the key
        pytest.param("predict", ["y0"], [0.5, 0.1], 2, "'y0'", id="predict-y0-length-2"),
        pytest.param(
            "stats", ["a_values"], [1.0, 0.0], 2, "'a_values[1]'", id="stats-radius-entry-1"
        ),
        pytest.param("stats", ["rate_a"], 1e60, 2, "'rate_a'", id="stats-rate-a-1e60"),
        # refusals the library words for itself
        pytest.param("predict", ["dt"], 0.0, 2, "dt must be positive", id="predict-dt-0"),
        pytest.param(
            "predict", ["horizon"], -1.0, 2, "horizon must be non-negative",
            id="predict-horizon-negative",
        ),
        pytest.param(
            "closure", ["alpha_scales"], [1, -2], 2, "alpha_scales must be positive",
            id="closure-scale-negative",
        ),
        pytest.param(
            "theorem1", ["grid", "delta"], 100.0, 2, "no lattice points", id="theorem1-delta-100"
        ),
        pytest.param(
            "theorem1", ["scales"], [1, 5000], 2, "underflowed", id="theorem1-scale-5000"
        ),
    ],
)
def test_extreme_config_number_exits_cleanly(tmp_path, capsys, command, path, value, code, word):
    # one short stderr line and no artifact on failure, a silent run on
    # success; a leaked RuntimeWarning fails the test through pytest's filter
    out = tmp_path / "o"
    bad = _mutated_config(tmp_path, command, path, value)
    assert _run([command, "--config", bad, "--out", out]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert (out / "run_manifest.json").exists()
    else:
        kind = "numerical" if code == 3 else "bad-input"
        assert err.startswith(f"sillkoop: {kind}: ") and err.count("\n") == 1
        assert word in err and len(err.encode()) < 200
        assert not list(out.iterdir())


@pytest.mark.parametrize(
    "command, path, value, expensive",
    [
        pytest.param("fit", ["ridge"], -1.0, "load_snapshots", id="fit-negative"),
        pytest.param("edmd", ["ridge"], float("inf"), "load_snapshots", id="edmd-inf"),
        pytest.param("closure", ["ridge"], float("nan"), "closure_experiment", id="closure-nan"),
        pytest.param(
            "example1", ["sill", "ridge"], -1e-8, "polynomial_residual_growth",
            id="example1-negative",
        ),
    ],
)
def test_bad_ridge_is_refused_by_its_key_before_any_work(
    tmp_path, monkeypatch, capsys, command, path, value, expensive
):
    bad = _mutated_config(tmp_path, command, path, value)
    monkeypatch.setattr(cli, expensive, _fail_with(AssertionError(f"{expensive} ran")))
    out = tmp_path / "o"
    assert _run([command, "--config", bad, "--out", out]) == 2
    key = ".".join(path)
    assert capsys.readouterr().err == (
        f"sillkoop: bad-input: config key '{key}' must be finite and non-negative, got {value}\n"
    )
    assert not list(out.iterdir())


def _config_paths(node, path=()):
    """The key or index path of every entry of a JSON value, depth first."""
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node)
    else:
        return
    for key, child in entries:
        yield (*path, key)
        yield from _config_paths(child, (*path, key))


def _mutate(parent, key, kind):
    """Apply one named mutation to parent[key], in place."""
    value = parent[key]
    swaps = {"str": "1.0", "bool": True, "null": None, "object": {}, "list": []}
    if kind in swaps:
        parent[key] = swaps[kind]
    elif kind == "wrap":
        parent[key] = [value]
    elif kind == "unwrap" and isinstance(value, list) and value:
        parent[key] = value[0]
    elif kind == "drop":
        del parent[key]
    elif kind == "add" and isinstance(parent, dict):
        parent["extra"] = value
    elif kind == "append" and isinstance(value, list):
        value.append(value[-1] if value else 1.0)
    elif kind in ("nan", "inf", "1e300", "-1e300", "1e160", "1e-300"):
        parent[key] = float(kind)
    elif kind == "1e999":
        parent[key] = "1e999"  # written as the bare JSON literal 1e999


_MUTATIONS = [
    "str", "bool", "null", "object", "list", "wrap", "unwrap",
    "drop", "add", "append", "nan", "inf", "1e999",
    # large and tiny finite values: squares and sums that overflow or underflow
    "1e300", "-1e300", "1e160", "1e-300",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(list(_CONFIGS)), st.integers(0, 10_000), st.sampled_from(_MUTATIONS))
# grid.box[0][1] = 1e160: the lift's largest singular value squares to inf
@example(command="closure", pick=36, kind="1e160")
def test_config_mutation_exits_cleanly(tmp_path_factory, command, pick, kind):
    # any one mutation of a working config exits 0, 2 or 3; a failure is
    # one stderr line, and bad input leaves no manifest
    tmp_path = tmp_path_factory.mktemp("mutation")
    cfg = json.loads(Path(_CONFIGS[command](tmp_path)).read_text())
    paths = list(_config_paths(cfg))
    *parents, key = paths[pick % len(paths)]
    parent = cfg
    for step in parents:
        parent = parent[step]
    _mutate(parent, key, kind)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(cfg).replace('"1e999"', "1e999"))
    out = tmp_path / "o"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run([command, "--config", path, "--out", out])
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("sillkoop: ") and err.count("\n") == 1
    if code == 2:
        assert not (out / "run_manifest.json").exists()


# the files besides the config that each command reads, as _CONFIGS writes them
_INPUT_FILES = {
    "fit": ("dict.json", "snaps_manifest.json", "snaps.csv"),
    "edmd": ("dict.json", "dt_manifest.json", "dt.csv"),
    "predict": ("model.json",),
    "complete-dictionary": ("dict.json",),
}

_CSV_MUTATIONS = [
    "text", "empty", "nan", "inf", "1e999", "drop", "add", "blank", "repeat",
    "1e300", "-1e300", "1e160", "1e-300",
]


def _mutate_csv(lines, pick, kind):
    """Apply one named field or line mutation to the CSV lines, in place."""
    i = pick % len(lines)
    if kind == "blank":
        lines.insert(i, "")
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        fields = lines[i].split(",")
        j = pick // len(lines) % len(fields)
        if kind == "drop":
            del fields[j]
        elif kind == "add":
            fields.insert(j, fields[j])
        else:
            fields[j] = {"text": "x", "empty": ""}.get(kind, kind)
        lines[i] = ",".join(fields)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([(c, name) for c, names in _INPUT_FILES.items() for name in names]),
    st.integers(0, 10_000),
    st.sampled_from(_MUTATIONS),
    st.sampled_from(_CSV_MUTATIONS),
)
# the first snapshot's y1 = 1e300: the lift's largest singular value squares to inf
@example(target=("fit", "snaps.csv"), pick=1, kind="str", csv_kind="1e300")
def test_input_file_mutation_exits_cleanly(tmp_path_factory, target, pick, kind, csv_kind):
    # one mutation of a dictionary, model, snapshot manifest or snapshot CSV
    # that a working config reads: the same contract as a mutated config
    command, name = target
    tmp_path = tmp_path_factory.mktemp("file-mutation")
    cfg = _CONFIGS[command](tmp_path)
    path = tmp_path / name
    if name.endswith(".csv"):
        lines = path.read_text().splitlines()
        _mutate_csv(lines, pick, csv_kind)
        path.write_text("\n".join(lines) + "\n")
    else:
        obj = json.loads(path.read_text())
        paths = list(_config_paths(obj))
        *parents, key = paths[pick % len(paths)]
        parent = obj
        for step in parents:
            parent = parent[step]
        _mutate(parent, key, kind)
        path.write_text(json.dumps(obj).replace('"1e999"', "1e999"))
    out = tmp_path / "o"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run([command, "--config", cfg, "--out", out])
    err = err.getvalue()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("sillkoop: ") and err.count("\n") == 1
    if code == 2:
        assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("nested", ["config", "dictionary", "model", "manifest"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, nested):
    # json.load raises RecursionError on a list nested 5000 deep; in any of
    # the JSON files a command reads that is bad input: one stderr line and
    # no file written
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / f"{nested}.json"
    # one text for every file: json.load fails before any key is read
    path.write_text('{"a_values": [1.0], "samples": 10, "m_values": [1], "note": %s}' % deep)
    if nested == "config":
        command, cfg = "stats", str(path)
    elif nested == "dictionary":
        command = "complete-dictionary"
        cfg = _write_config(tmp_path / "cfg.json", {"dictionary": str(path)})
    elif nested == "model":
        command = "predict"
        cfg = _write_config(
            tmp_path / "cfg.json", {"model": str(path), "y0": [0.5], "horizon": 1.0, "dt": 0.1}
        )
    else:
        command, cfg = "fit", _fit_config(tmp_path, _ct_snapshot_files(tmp_path)[0], path)
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sillkoop: bad-input: ") and err.count("\n") == 1
    assert "recursion" in err
    assert not out.exists() or not list(out.iterdir())


def test_cli_import_loads_no_thread_pool_or_logging():
    # stats imports concurrent.futures when it runs; at start-up neither it
    # nor the logging it pulls in may load, as every command pays for them
    code = (
        "import sys\n"
        "import sillkoop.cli\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "m, key, value",
    [
        pytest.param(2, "mu", ["-0.4", 0.3], id="mu-string"),
        pytest.param(2, "alpha", [True, 3.0], id="alpha-bool"),
        pytest.param(1, "m", "true", id="m-bool"),
        pytest.param(1, "m", "1e999", id="m-overflow"),
        pytest.param(2, "mu", [10**400, 0.3], id="mu-beyond-float-range"),
    ],
)
def test_dictionary_file_number_rule_exits_2(tmp_path, capsys, m, key, value):
    # a dictionary file's numbers pass the config rule: a bool is no 1, a
    # string no number, and an m that is no integer is refused up front
    logistics = [{"mu": [-0.4, 0.3][:m], "alpha": [2.0, 3.0][:m]}]
    if key == "m":
        text = '{"m": %s, "logistics": %s}' % (value, json.dumps(logistics))
    else:
        logistics[0][key] = value
        text = json.dumps({"m": m, "logistics": logistics})
    (tmp_path / "d.json").write_text(text)
    cfg = _write_config(tmp_path / "cd.json", {"dictionary": str(tmp_path / "d.json")})
    out = tmp_path / "o"
    assert _run(["complete-dictionary", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sillkoop: bad-input: dictionary key") and err.count("\n") == 1
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("K", ["0"] * 9, id="K-strings"),
        pytest.param("K", [True] + [0.0] * 8, id="K-bool"),
        pytest.param("K", [[0.0] * 3] * 3, id="K-nested"),
        pytest.param("K", [0.0] * 8, id="K-short"),
        pytest.param("mode", ["CT"], id="mode-list"),
        pytest.param("ridge", True, id="ridge-bool"),
    ],
)
def test_model_file_number_rule_exits_2(tmp_path, capsys, key, value):
    # a model file passes the rule of configs and dictionary files: K is a
    # flat list of N^2 numbers, mode a string and ridge a number
    cfg = _predict_config(tmp_path)
    model_path = tmp_path / "model.json"
    obj = json.loads(model_path.read_text())
    obj[key] = value
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert _run(["predict", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sillkoop: bad-input: model key") and err.count("\n") == 1
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "command, name, path, word",
    [
        pytest.param(
            "complete-dictionary", "dict.json", ["logistics", 0, "alpha", 0],
            "dictionary key 'logistics[0].alpha[0]'", id="dictionary-alpha-entry",
        ),
        pytest.param("predict", "model.json", ["K", 1], "model key 'K[1]'", id="model-K-entry"),
    ],
)
def test_file_refusal_names_the_list_entry(tmp_path, capsys, command, name, path, word):
    # a bad entry of a list in a dictionary or model file is named by its
    # full path, the index inside the quotes
    cfg = _CONFIGS[command](tmp_path)
    obj = json.loads((tmp_path / name).read_text())
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = "0.5"
    (tmp_path / name).write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sillkoop: bad-input: {word} must be a number")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, name, path, value, key",
    [
        pytest.param(
            "complete-dictionary", "dict.json", ["logistics", 0, "alpha", 1], -7.0,
            "dictionary key 'logistics[0].alpha'", id="dictionary-alpha",
        ),
        pytest.param(
            "predict", "model.json", ["dictionary", "logistics", 0, "alpha"], [0.0],
            "dictionary key 'logistics[0].alpha'", id="model-alpha",
        ),
        pytest.param(
            "closure", None, ["logistics", 1, "alpha", 0], -7.0,
            "config key 'logistics[1].alpha'", id="closure-alpha",
        ),
        pytest.param(
            "closure", None, ["logistics", 0, "mu", 1], float("inf"),
            "config key 'logistics[0].mu'", id="closure-infinite-mu",
        ),
        pytest.param(
            "closure", None, ["logistics", 2, "mu"], [0.1],
            "config key 'logistics[2]'", id="closure-short-mu",
        ),
        pytest.param(
            "example1", None, ["sill", "alpha"], -4.0, "config key 'sill.alpha'",
            id="example1-alpha",
        ),
        pytest.param(
            "example1", None, ["sill", "centers", 2], float("nan"),
            "config key 'sill.centers[2]'", id="example1-nan-center",
        ),
    ],
)
def test_refused_logistic_value_names_its_key(tmp_path, capsys, command, name, path, value, key):
    # a steepness that is not positive, a center that is not finite and a
    # logistic of the wrong length are named by their full key, in the
    # config or in the dictionary or model file it reads
    if name is None:
        cfg = _mutated_config(tmp_path, command, path, value)
    else:
        cfg = _CONFIGS[command](tmp_path)
        obj = json.loads((tmp_path / name).read_text())
        *parents, last = path
        target = obj
        for k in parents:
            target = target[k]
        target[last] = value
        (tmp_path / name).write_text(json.dumps(obj))
    out = tmp_path / "o"
    assert _run([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sillkoop: bad-input: {key}") and err.count("\n") == 1
    assert not list(out.iterdir())


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
    assert set(manifest["versions"]) == {"sillkoop", "numpy", "python"}


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, cmd in cli._COMMANDS.items():
        assert f"  {name} " in out and cmd.__doc__ in out


@pytest.mark.parametrize(
    "args, word",
    [
        pytest.param(["nosuch", "--config", "x.json"], "invalid choice", id="unknown-command"),
        pytest.param(["fit"], "--config", id="missing-config"),
        pytest.param(["fit", "--config", "x.json", "--seed", "x"], "--seed", id="seed-not-int"),
    ],
)
def test_bad_usage_exits_2_before_making_the_out_directory(tmp_path, capsys, args, word):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        _run(args + ["--out", out])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("sillkoop: bad-input: ") and word in lines[0]
    assert not out.exists()


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert _run(["stats", "--config", tmp_path / "missing.json", "--out", tmp_path]) == 2
    assert "bad-input" in capsys.readouterr().err


def test_each_command_evaluates_each_snapshot_batch_once(tmp_path, monkeypatch):
    # stable_sigmoid calls per command, exact on any host: a CT fit takes
    # its lift and target from one table and reports its own residual; a DT
    # fit lifts y and y+; a closure scale evaluates one table per grid, the
    # completed dictionary's, which is the field's: the training table gives
    # the field, lift and target of the fit, the held-out table the field,
    # the residual and every bound, the joins read off its completed values
    calls = []
    original = dictionary.stable_sigmoid

    def counted(z):
        calls.append(1)
        return original(z)

    monkeypatch.setattr(dictionary, "stable_sigmoid", counted)
    ct_csv, ct_man = _ct_snapshot_files(tmp_path)
    Y = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    dt_csv, dt_man = tmp_path / "dt.csv", tmp_path / "dt_manifest.json"
    save_snapshots(SnapshotSet(Y, 0.9 * Y, "DT", dt=0.5), dt_csv, dt_man)
    configs = [
        ("fit", _fit_config(tmp_path, ct_csv, ct_man), 1),
        ("edmd", _fit_config(tmp_path, dt_csv, dt_man, "edmd.json"), 2),
        ("example1", _example1_config(tmp_path, (1, 2)), 1),
        ("closure", _closure_config(tmp_path), 2 * 3),  # three scales
    ]
    for command, cfg, expected in configs:
        calls.clear()
        assert _run([command, "--config", cfg, "--out", tmp_path / command]) == 0
        assert len(calls) == expected, command
