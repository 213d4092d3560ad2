"""Experiment command line: fit models, run closure and statistics sweeps.

Every command reads a JSON config (validated before any computation runs),
writes machine-readable CSV/JSON artifacts into the output directory, and
finishes with a run_manifest.json recording the command, a hash of the
config, the seed, and library versions.  Outputs are written atomically
(temp file + rename) and contain no timestamps, so a rerun with the same
config and seed reproduces every file byte for byte.

Exit codes: 0 success, 2 bad input, 3 numerical failure (trajectory
divergence, quadrature non-convergence, least-squares solver failure, or a
fitted residual above its closure bound).  Errors print as a single line
on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .bench import polynomial_residual_growth
from .closure import (
    SpannedField,
    closure_experiment,
    half_cell_shift,
    hyperplane_distance,
    lattice_grid,
    product_approx_decay,
)
from .dictionary import (
    ConjLogistic,
    SillDictionary,
    _write_csv,
    _write_json,
    check_total_order,
    join_completion,
    load_dictionary,
)
from .errors import ClosureBoundError, QuadratureError
from .regression import (
    SnapshotSet,
    fit_edmd,
    fit_generator,
    load_model,
    load_snapshots,
    predict_ct,
    residual,
    save_model,
)
from .stats import (
    expected_error_rates,
    mc_conjunctive,
    moment_sweep,
    write_error_rate_csv,
    write_moment_csv,
)

_RNG_NAME = "pcg64"


def _need(cfg: dict, key: str, kind, desc: str, least=None):
    if key not in cfg:
        raise ValueError(f"config missing required key '{key}' ({desc})")
    val = cfg[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ValueError(f"config key '{key}' must be a number ({desc})")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"config key '{key}' must be an integer ({desc})")
        if least is not None and val < least:
            raise ValueError(f"config key '{key}' must be at least {least} ({desc})")
        return val
    if not isinstance(val, kind):
        raise ValueError(f"config key '{key}' must be {kind.__name__} ({desc})")
    return val


def _grid_spec(cfg: dict):
    grid = _need(cfg, "grid", dict, "grid settings object")
    box = _need(grid, "box", list, "list of [lo, hi] pairs")
    points = _need(grid, "points_per_dim", int, "lattice points per dimension")
    delta = _need(grid, "delta", float, "hyperplane clearance")
    if delta <= 0:
        raise ValueError("grid delta must be strictly positive")
    return box, points, delta


def _optional(cfg: dict, key: str, kind, desc: str, default):
    if key not in cfg or cfg[key] is None:
        return default
    return _need(cfg, key, kind, desc)


def _logistic_from(obj: dict, label: str) -> ConjLogistic:
    if not isinstance(obj, dict) or "mu" not in obj or "alpha" not in obj:
        raise ValueError(f"{label} must be an object with 'mu' and 'alpha' arrays")
    return ConjLogistic(obj["mu"], obj["alpha"])


def _residual_summary(rep, snaps) -> dict:
    return {
        "max_row_norm": rep.max_row_norm,
        "mean_row_norm": rep.mean_row_norm,
        "per_function_max": rep.per_function_max.tolist(),
        "snapshots": snaps.r,
    }


# ---------------------------------------------------------------------------
# commands


def _fit_command(cfg, outdir, mode):
    """Body of fit (CT generator) and edmd (DT operator)."""
    csv_path = _need(cfg, "snapshots_csv", str, "snapshot CSV path")
    man_path = _need(cfg, "snapshots_manifest", str, "snapshot manifest path")
    dict_path = _need(cfg, "dictionary", str, "dictionary JSON path")
    ridge = _need(cfg, "ridge", float, "ridge penalty")
    snaps = load_snapshots(csv_path, man_path)
    if snaps.mode != mode:
        command, other = ("fit", "edmd") if mode == "CT" else ("edmd", "fit")
        raise ValueError(
            f"{command} expects {mode} snapshots; use the {other} command for "
            f"{snaps.mode} data"
        )
    d = load_dictionary(dict_path)
    model = (fit_generator if mode == "CT" else fit_edmd)(snaps, d, ridge)
    rep = residual(model, snaps)
    save_model(model, os.path.join(outdir, "model.json"))
    _write_json(os.path.join(outdir, "residual_summary.json"), _residual_summary(rep, snaps))
    return {"outputs": ["model.json", "residual_summary.json"]}


def cmd_fit(cfg, outdir, seed):
    return _fit_command(cfg, outdir, "CT")


def cmd_edmd(cfg, outdir, seed):
    return _fit_command(cfg, outdir, "DT")


def cmd_predict(cfg, outdir, seed):
    model = load_model(_need(cfg, "model", str, "model JSON path"))
    y0 = _need(cfg, "y0", list, "initial measurement vector")
    horizon = _need(cfg, "horizon", float, "integration horizon")
    dt = _need(cfg, "dt", float, "integration step")
    traj = predict_ct(model, np.asarray(y0, dtype=float), horizon, dt)
    m = model.dictionary.m
    header = "t," + ",".join(f"y{i + 1}" for i in range(m))
    rows = [
        [repr(k * dt)] + [repr(float(v)) for v in row] for k, row in enumerate(traj.y)
    ]
    _write_csv(os.path.join(outdir, "trajectory.csv"), header, rows)
    _write_json(
        os.path.join(outdir, "predict_summary.json"),
        {"diverged": traj.diverged, "rows": int(traj.y.shape[0])},
    )
    result = {"outputs": ["trajectory.csv", "predict_summary.json"]}
    if traj.diverged:
        result["exit"] = 3
        result["error"] = "trajectory diverged; output truncated"
    return result


def _spanned_field_from(cfg) -> SpannedField:
    m = _need(cfg, "m", int, "measurement dimension")
    entries = _need(cfg, "logistics", list, "list of {mu, alpha} objects")
    logistics = tuple(
        _logistic_from(e, f"logistics[{k}]") for k, e in enumerate(entries)
    )
    W = np.asarray(_need(cfg, "W", list, "m x N_L weight matrix"), dtype=float)
    return SpannedField(SillDictionary(m, logistics), W)


def cmd_closure(cfg, outdir, seed):
    sf = _spanned_field_from(cfg)
    box, points, delta = _grid_spec(cfg)
    scales = _need(cfg, "alpha_scales", list, "steepness scale factors")
    ridge = _need(cfg, "ridge", float, "ridge penalty")
    a = _optional(cfg, "nu_clip_a", float, "clip for the per-term nu bound", None)
    train = lattice_grid(box, points)
    held = half_cell_shift(box, points)
    reports = closure_experiment(
        sf, train, scales, ridge=ridge, a=a, delta=delta, holdout_grid=held
    )
    _write_json(
        os.path.join(outdir, "closure_reports.json"), [r.to_dict() for r in reports]
    )
    _write_csv(
        os.path.join(outdir, "closure.csv"),
        "scale,residual_max,B",
        [[repr(r.alpha_scale), repr(r.residual_max), repr(r.B)] for r in reports],
    )
    return {"outputs": ["closure_reports.json", "closure.csv"]}


def cmd_theorem1(cfg, outdir, seed):
    f = _logistic_from(_need(cfg, "f", dict, "first logistic"), "f")
    g = _logistic_from(_need(cfg, "g", dict, "second logistic"), "g")
    box, points, delta = _grid_spec(cfg)
    scales = _need(cfg, "scales", list, "steepness scale factors")
    pair = SillDictionary(f.m, (f, g))
    grid = lattice_grid(box, points)
    keep = hyperplane_distance(grid, pair) >= delta
    grid = grid[keep]
    if grid.shape[0] == 0:
        raise ValueError(
            f"no lattice points clear the center hyperplanes by delta={delta}"
        )
    fit = product_approx_decay(f, g, grid, scales)
    _write_csv(
        os.path.join(outdir, "decay.csv"),
        "scale,max_error",
        [[repr(float(s)), repr(float(e))] for s, e in zip(fit.alphas, fit.max_errors)],
    )
    _write_json(
        os.path.join(outdir, "decay_fit.json"),
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "scales": fit.alphas.tolist(),
            "max_errors": fit.max_errors.tolist(),
            "grid_points": int(grid.shape[0]),
        },
    )
    return {"outputs": ["decay.csv", "decay_fit.json"]}


def cmd_stats(cfg, outdir, seed):
    a_values = _need(cfg, "a_values", list, "interval radii for the moment sweep")
    quad_points = _need(cfg, "quad_points", int, "quadrature subdivision limit", 100)
    samples = _need(cfg, "samples", int, "Monte Carlo sample count", 1)
    m_values = _need(cfg, "m_values", list, "measurement dimensions for rate table")
    rate_a = _optional(cfg, "rate_a", float, "interval radius for the rate table", 2.0)
    reports = moment_sweep(a_values, quad_points, samples, seed)
    write_moment_csv(reports, os.path.join(outdir, "moments.csv"))
    rows = expected_error_rates(m_values, rate_a, samples=samples, seed=seed)
    write_error_rate_csv(rows, os.path.join(outdir, "error_rates.csv"))
    conj_rows = []
    for i, m in enumerate(m_values):
        est, stderr = mc_conjunctive(int(m), rate_a, samples, seed + 1000 + i)
        conj_rows.append([int(m), repr(est), repr(stderr), repr(2.0 ** -int(m))])
    _write_csv(
        os.path.join(outdir, "conjunctive.csv"),
        "m,estimate,stderr,bound",
        conj_rows,
    )
    return {"outputs": ["moments.csv", "error_rates.csv", "conjunctive.csv"]}


def cmd_example1(cfg, outdir, seed):
    degrees = _need(cfg, "degrees", list, "polynomial dictionary degrees")
    fit_range = _need(cfg, "fit_range", list, "sampling interval [lo, hi]")
    fit_points = _need(cfg, "fit_points", int, "sample count over fit_range")
    lo, hi = float(fit_range[0]), float(fit_range[1])
    y = np.linspace(lo, hi, fit_points)
    rows = []
    slopes = {}
    for n in degrees:
        res = polynomial_residual_growth(int(n), y)
        slopes[str(int(n))] = res.growth_slope
        for gy, gr, ratio in zip(res.growth_y, res.growth_residual, res.growth_ratio):
            rows.append([int(n), repr(float(gy)), repr(float(gr)), repr(float(ratio))])
    _write_csv(
        os.path.join(outdir, "example1_poly.csv"),
        "n,y,residual,residual_over_y_pow",
        rows,
    )
    sill = _need(cfg, "sill", dict, "bounded-box SILL comparison spec")
    centers = _need(sill, "centers", list, "logistic centers")
    alpha = _need(sill, "alpha", float, "shared steepness")
    box = _need(sill, "box", list, "bounded interval [lo, hi]")
    points = _need(sill, "points", int, "sample count over the box")
    ridge = _need(sill, "ridge", float, "ridge penalty")
    d = SillDictionary(
        1, tuple(ConjLogistic([float(c)], [alpha]) for c in centers)
    )
    grid = np.linspace(float(box[0]), float(box[1]), points)[:, None]
    snaps = SnapshotSet(grid, grid**2, "CT")
    model = fit_generator(snaps, join_completion(d), ridge)
    rep = residual(model, snaps)
    _write_json(
        os.path.join(outdir, "example1_summary.json"),
        {
            "growth_slopes": slopes,
            "sill_box": [float(box[0]), float(box[1])],
            "sill_residual_max": rep.max_row_norm,
            "sill_residual_mean": rep.mean_row_norm,
        },
    )
    return {"outputs": ["example1_poly.csv", "example1_summary.json"]}


def cmd_complete_dictionary(cfg, outdir, seed):
    d = load_dictionary(_need(cfg, "dictionary", str, "dictionary JSON path"))
    before = check_total_order(d)
    completed = join_completion(d)
    after = check_total_order(completed)
    _write_json(
        os.path.join(outdir, "dictionary_completed.json"), completed.to_dict()
    )
    _write_json(
        os.path.join(outdir, "order_check.json"),
        {
            "before": {
                "totally_ordered": before.totally_ordered,
                "incomparable_pairs": [list(p) for p in before.incomparable_pairs],
                "n_logistic": d.n_logistic,
            },
            "after": {
                "totally_ordered": after.totally_ordered,
                "incomparable_pairs": [list(p) for p in after.incomparable_pairs],
                "n_logistic": completed.n_logistic,
            },
        },
    )
    return {"outputs": ["dictionary_completed.json", "order_check.json"]}


_COMMANDS = {
    "fit": cmd_fit,
    "edmd": cmd_edmd,
    "predict": cmd_predict,
    "closure": cmd_closure,
    "theorem1": cmd_theorem1,
    "stats": cmd_stats,
    "example1": cmd_example1,
    "complete-dictionary": cmd_complete_dictionary,
}

_DESCRIPTIONS = {
    "fit": "fit a CT generator from snapshot CSV + dictionary JSON",
    "edmd": "fit a DT operator from snapshot CSV + dictionary JSON",
    "predict": "step a fitted CT model with its exact propagator",
    "closure": "closure bounds and fitted residuals across steepness scales",
    "theorem1": "steepness-decay sweep of the product-approximation error",
    "stats": "logistic moment sweep, error-rate table, conjunctive bound",
    "example1": "polynomial non-closure growth table plus a bounded SILL fit",
    "complete-dictionary": "join-complete a dictionary and report its order",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sillkoop",
        description="experiment runner for SILL Koopman models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=_DESCRIPTIONS[name])
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    return parser


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(outdir, command, cfg, seed, outputs) -> None:
    _write_json(
        os.path.join(outdir, "run_manifest.json"),
        {
            "command": command,
            "config": cfg,
            "config_sha256": _config_hash(cfg),
            "seed": seed,
            "rng": _RNG_NAME,
            "outputs": sorted(outputs),
            "versions": {
                "sillkoop": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
        },
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        os.makedirs(args.out, exist_ok=True)
        result = _COMMANDS[args.command](cfg, args.out, args.seed)
        _write_manifest(args.out, args.command, cfg, args.seed, result["outputs"])
        if result.get("exit", 0) != 0:
            print(f"sillkoop: numerical: {result['error']}", file=sys.stderr)
            return result["exit"]
        return 0
    # LinAlgError subclasses ValueError, so it must be caught first
    except (QuadratureError, ClosureBoundError, np.linalg.LinAlgError) as exc:
        print(f"sillkoop: numerical: {_one_line(exc)}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"sillkoop: bad-input: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
