"""Experiment command line: fit models, run closure and statistics sweeps.

Every command reads a JSON config (validated before any computation runs)
and computes all of its artifacts before anything is written.  main then
writes each into a temp file in the output directory and only then
renames them over their names in order, run_manifest.json last: the
command, the config and its hash, the seed, the files written and library
versions.  A run that fails before the renames leaves no file; a failure
while renaming (for example, a directory already holds an artifact's
name) can leave the files renamed before it, but never a new
run_manifest.json.  JSON artifacts hold no NaN or Infinity and no file
has a timestamp, so a rerun with the same config, seed and BLAS thread
count reproduces every file byte for byte (at another thread count a
least-squares product may sum in another order).

Exit codes: 0 success, 2 bad input (bad usage and a config the manifest
cannot record included), 3 numerical failure (trajectory divergence,
which still writes the truncated trajectory, a moment whose two
quadrature rules disagree, least-squares solver failure, a fitted
residual above its closure bound, or a computed value that is not
finite).  Errors, bad usage included, print as a single line on stderr.
Any other exception is a bug, not bad input, and keeps its traceback.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from . import __version__
from .bench import GROWTH_POINTS, polynomial_residual_growth
from .closure import (
    MAX_GRID_ROWS,
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
    _checked,
    _csv_text,
    _dictionary_from,
    _json_text,
    _params_from,
    _write_atomic,
    check_total_order,
    join_completion,
    load_dictionary,
)
from .errors import ClosureBoundError, QuadratureError
from .regression import (
    SnapshotSet,
    _fit,
    load_model,
    load_snapshots,
    predict_ct,
)
from .stats import (
    MAX_M,
    MAX_SAMPLE_FACTORS,
    MAX_SAMPLES,
    ErrorRateRow,
    MomentReport,
    _check_radius,
    _check_work,
    expected_error_rates,
    mc_conjunctive_table,
    moment_sweep,
)

_RNG_NAME = "pcg64"


def _need(cfg: dict, path: str, kind, desc: str, least=None, most=None):
    """The value at a dotted path such as 'grid.box'; each parent was read first."""
    *parents, key = path.split(".")
    for parent in parents:
        cfg = cfg[parent]
    if key not in cfg:
        raise ValueError(f"config missing required key '{path}' ({desc})")
    return _checked(cfg[key], kind, "config", path, desc, least, most)


def _ridge(cfg: dict, path: str) -> float:
    """The ridge penalty at path, refused unless finite and non-negative."""
    ridge = _need(cfg, path, float, "ridge penalty")
    if not 0 <= ridge < math.inf:
        raise ValueError(f"config key '{path}' must be finite and non-negative, got {ridge}")
    return ridge


def _grid_spec(cfg: dict, m: int):
    _need(cfg, "grid", dict, "grid settings object")
    box = _need(cfg, "grid.box", [[float]], "list of [lo, hi] pairs")
    # refused before any lattice is built
    if len(box) != m:
        raise ValueError(f"config key 'grid.box' must have {m} [lo, hi] rows, got {len(box)}")
    for i, bounds in enumerate(box):
        _lo_hi(bounds, f"grid.box[{i}]")
    points = _need(cfg, "grid.points_per_dim", int, "lattice points per dimension")
    delta = _need(cfg, "grid.delta", float, "hyperplane clearance")
    if not delta > 0:
        raise ValueError(f"config key 'grid.delta' must be strictly positive, got {delta}")
    return box, points, delta


def _lo_hi(bounds: list, key: str):
    """bounds as [lo, hi] with lo < hi and a finite width hi - lo (NaN is refused)."""
    if len(bounds) != 2:
        raise ValueError(f"config key '{key}' must be [lo, hi], got {len(bounds)} entries")
    if not (bounds[0] < bounds[1] and math.isfinite(bounds[1] - bounds[0])):
        raise ValueError(f"config key '{key}' needs lo < hi and a finite width, got {bounds}")
    return bounds


def _interval(cfg: dict, key: str, desc: str):
    return _lo_hi(_need(cfg, key, [float], f"{desc} [lo, hi]"), key)


# ---------------------------------------------------------------------------
# commands


def _fit_command(cfg, mode):
    """Body of fit (CT generator) and edmd (DT operator)."""
    csv_path = _need(cfg, "snapshots_csv", str, "snapshot CSV path")
    man_path = _need(cfg, "snapshots_manifest", str, "snapshot manifest path")
    dict_path = _need(cfg, "dictionary", str, "dictionary JSON path")
    ridge = _ridge(cfg, "ridge")
    snaps = load_snapshots(csv_path, man_path)
    if snaps.mode != mode:
        command, other = ("fit", "edmd") if mode == "CT" else ("edmd", "fit")
        raise ValueError(
            f"{command} expects {mode} snapshots; use the {other} command for "
            f"{snaps.mode} data"
        )
    model, R = _fit(snaps, load_dictionary(dict_path), ridge, mode)
    top, mean = _row_norm_max_mean(R)
    summary = {
        "max_row_norm": top,
        "mean_row_norm": mean,
        "per_function_max": np.abs(R).max(axis=0).tolist(),
        "snapshots": snaps.r,
    }
    return {"model.json": model.to_dict(), "residual_summary.json": summary}


def _row_norm_max_mean(R):
    """Max and mean of the 2-norms of the rows of a residual matrix R."""
    # a row whose squares overflow gets norm inf, without a warning
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(R, axis=1)
    return float(norms.max()), float(norms.mean())


def cmd_fit(cfg, seed):
    """fit a CT generator from snapshot CSV + dictionary JSON"""
    return _fit_command(cfg, "CT")


def cmd_edmd(cfg, seed):
    """fit a DT operator from snapshot CSV + dictionary JSON"""
    return _fit_command(cfg, "DT")


def cmd_predict(cfg, seed):
    """step a fitted CT model with its exact propagator"""
    model = load_model(_need(cfg, "model", str, "model JSON path"))
    m = model.dictionary.m
    y0 = _need(cfg, "y0", [float], "initial measurement vector")
    if len(y0) != m:
        raise ValueError(f"config key 'y0' has {len(y0)} entries, the model's dimension is {m}")
    horizon = _need(cfg, "horizon", float, "integration horizon")
    dt = _need(cfg, "dt", float, "integration step")
    y, diverged = predict_ct(model, y0, horizon, dt)
    header = "t," + ",".join(f"y{i + 1}" for i in range(m))
    # str of a tolist float is its shortest round trip; arange(n) * dt is each k * dt
    rows = np.column_stack([np.arange(len(y)) * dt, y]).tolist()
    return {
        "trajectory.csv": (header, rows),
        "predict_summary.json": {"diverged": diverged, "rows": len(rows)},
    }


def _spanned_field_from(cfg) -> SpannedField:
    m = _need(cfg, "m", int, "measurement dimension", 1)
    d = _dictionary_from(m, _need(cfg, "logistics", list, "list of {mu, alpha} objects"), "config")
    return SpannedField(d, _need(cfg, "W", [[float]], "m x N_L weight matrix"))


def cmd_closure(cfg, seed):
    """closure bounds and fitted residuals across steepness scales"""
    sf = _spanned_field_from(cfg)
    box, points, delta = _grid_spec(cfg, sf.dictionary.m)
    scales = _need(cfg, "alpha_scales", [float], "steepness scale factors")
    ridge = _ridge(cfg, "ridge")
    train = lattice_grid(box, points)
    held = half_cell_shift(box, points)
    reports = closure_experiment(sf, train, scales, ridge=ridge, delta=delta, holdout_grid=held)
    return {
        "closure_reports.json": [r.to_dict() for r in reports],
        "closure.csv": (
            "scale,residual_max,B",
            [[r.alpha_scale, r.residual_max, r.B] for r in reports],
        ),
    }


def _logistic_from(cfg, key: str, desc: str) -> ConjLogistic:
    """The logistic at key; a refusal of its parameters names the key."""
    params = _params_from(_need(cfg, key, dict, desc), key, "config")
    try:
        return ConjLogistic(*params)
    except ValueError as exc:
        raise ValueError(f"config key '{key}': {exc}") from None


def cmd_theorem1(cfg, seed):
    """steepness-decay sweep of the product-approximation error"""
    f = _logistic_from(cfg, "f", "first logistic")
    g = _logistic_from(cfg, "g", "second logistic")
    if f.m != g.m:
        raise ValueError(f"config keys 'f' and 'g' must have equal dimensions, got {f.m} and {g.m}")
    box, points, delta = _grid_spec(cfg, f.m)
    scales = np.asarray(_need(cfg, "scales", [float], "steepness scale factors"), dtype=float)
    pair = SillDictionary(f.m, (f, g))
    grid = lattice_grid(box, points)
    keep = hyperplane_distance(grid, pair) >= delta
    grid = grid[keep]
    if grid.shape[0] == 0:
        raise ValueError(
            f"no lattice points clear the center hyperplanes by delta={delta}"
        )
    errors, slope, intercept = product_approx_decay(f, g, grid, scales)
    return {
        "decay.csv": ("scale,max_error", np.column_stack([scales, errors]).tolist()),
        "decay_fit.json": {
            "slope": slope,
            "intercept": intercept,
            "scales": scales.tolist(),
            "max_errors": errors.tolist(),
            "grid_points": int(grid.shape[0]),
        },
    }


def cmd_stats(cfg, seed):
    """logistic moment sweep, error-rate table, conjunctive bound"""
    a_values = _need(cfg, "a_values", [float], "interval radii for the moment sweep")
    samples = _need(cfg, "samples", int, "Monte Carlo sample count", 1, MAX_SAMPLES)
    m_values = _need(
        cfg, "m_values", [int], "measurement dimensions for rate table", 1, MAX_M
    )
    rate_a = 2.0  # when the key is missing or null
    if cfg.get("rate_a") is not None:
        rate_a = _need(cfg, "rate_a", float, "interval radius for the rate table")
    keys = [f"a_values[{i}]" for i in range(len(a_values))] + ["rate_a"]
    for key, a in zip(keys, a_values + [rate_a]):
        try:
            _check_radius(a)
        except ValueError as exc:
            raise ValueError(f"config key '{key}': {exc}") from None
    # the error table is the largest estimate: 2 max(m) logistics and its error term
    _check_work(samples, 2 * max(m_values, default=0) + 1)
    # the moment sweep draws one logistic per sample at every radius
    if len(a_values) * samples > MAX_SAMPLE_FACTORS:
        raise ValueError(
            f"config key 'a_values' has {len(a_values)} radii of {samples} samples each; "
            f"radii x samples must be at most {MAX_SAMPLE_FACTORS}"
        )
    # A one-thread pool runs it while this thread runs the moment sweep and
    # then the conjunctive table.  Each table owns its seeded generator and
    # walks its blocks in a fixed order, so no number depends on scheduling.
    # Leaving the with block joins the thread; an error here wins over the
    # pool's.  Imported here: at module level it would bring in logging.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="sillkoop-error-rates") as pool:
        rates = pool.submit(expected_error_rates, m_values, rate_a, samples=samples, seed=seed)
        reports = moment_sweep(a_values, samples, seed)
        conj = mc_conjunctive_table(m_values, rate_a, samples, seed + 1000)
    return {
        "moments.csv": _csv_of(MomentReport, reports),
        "error_rates.csv": _csv_of(ErrorRateRow, rates.result()),
        "conjunctive.csv": (
            "m,estimate,stderr,bound",
            [[m, est, se, 2.0**-m] for m, (est, se) in zip(m_values, conj)],
        ),
    }


def _csv_of(cls, reports):
    """(header, rows) with one column per field of the dataclass cls, in order."""
    return ",".join(f.name for f in fields(cls)), [astuple(r) for r in reports]


def cmd_example1(cfg, seed):
    """polynomial non-closure growth table plus a bounded SILL fit"""
    degrees = _need(cfg, "degrees", [int], "polynomial dictionary degrees", 1)
    lo, hi = _interval(cfg, "fit_range", "sampling interval")
    fit_points = _need(cfg, "fit_points", int, "sample count over fit_range", most=MAX_GRID_ROWS)
    _need(cfg, "sill", dict, "bounded-box SILL comparison spec")
    centers = _need(cfg, "sill.centers", [float], "logistic centers")
    alpha = _need(cfg, "sill.alpha", float, "shared steepness")
    box = _interval(cfg, "sill.box", "bounded interval")
    points = _need(cfg, "sill.points", int, "sample count over the box", most=MAX_GRID_ROWS)
    ridge = _ridge(cfg, "sill.ridge")
    keys = {"mu": "config key 'sill.centers[{}]'", "alpha": "config key 'sill.alpha'"}
    d = SillDictionary._of(np.reshape(centers, (-1, 1)), np.full((len(centers), 1), alpha), keys)
    y = np.linspace(lo, hi, fit_points)
    rows = []
    slopes = {}
    for n in degrees:
        _, growth, slopes[str(n)] = polynomial_residual_growth(n, y)
        for gy, gr, ratio in zip(GROWTH_POINTS, growth, growth / GROWTH_POINTS ** (n + 1)):
            rows.append([n, float(gy), float(gr), float(ratio)])
    grid = np.linspace(box[0], box[1], points)[:, None]
    # a bound whose square is past the float range gives inf, which
    # SnapshotSet refuses
    with np.errstate(over="ignore"):
        snaps = SnapshotSet(grid, grid**2, "CT")
    top, mean = _row_norm_max_mean(_fit(snaps, join_completion(d), ridge, "CT")[1])
    return {
        "example1_poly.csv": ("n,y,residual,residual_over_y_pow", rows),
        "example1_summary.json": {
            "growth_slopes": slopes,
            "sill_box": [box[0], box[1]],
            "sill_residual_max": top,
            "sill_residual_mean": mean,
        },
    }


def cmd_complete_dictionary(cfg, seed):
    """join-complete a dictionary and report its order"""
    d = load_dictionary(_need(cfg, "dictionary", str, "dictionary JSON path"))
    completed = join_completion(d)
    order = {}
    for key, dic in (("before", d), ("after", completed)):
        pairs = check_total_order(dic)
        order[key] = {
            "totally_ordered": not pairs,
            "incomparable_pairs": [list(p) for p in pairs],
            "n_logistic": dic.n_logistic,
        }
    return {"dictionary_completed.json": completed.to_dict(), "order_check.json": order}


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


def _build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<21}{cmd.__doc__}" for name, cmd in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="sillkoop",
        description="experiment runner for SILL Koopman models",
        epilog="commands:" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(_COMMANDS), metavar="command", help="listed below")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.error = _usage_error  # one stderr line, as for any other bad input
    return parser


def _usage_error(message):
    print(f"sillkoop: bad-input: {_one_line(message)}", file=sys.stderr)
    sys.exit(2)


def _config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _manifest(command, cfg, seed, names) -> dict:
    return {
        "command": command,
        "config": cfg,
        "config_sha256": _config_hash(cfg),
        "seed": seed,
        "rng": _RNG_NAME,
        "outputs": sorted(names),
        "versions": {
            "sillkoop": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }


def _text(name, obj) -> str:
    """A .csv file's text from its (header, rows), any other from its JSON object."""
    if name.endswith(".csv"):
        return _csv_text(*obj)
    try:
        return _json_text(obj)
    except ValueError:  # NaN or Infinity
        if name == "run_manifest.json":  # it copies the config
            raise ValueError("config holds NaN or Infinity, which JSON cannot hold") from None
        raise FloatingPointError(f"{name} would hold a value that is not finite") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        os.makedirs(args.out, exist_ok=True)
        files = _COMMANDS[args.command](cfg, args.seed)
        files["run_manifest.json"] = _manifest(args.command, cfg, args.seed, list(files))
        # every file is formatted before the first is written, the manifest last
        _write_atomic([(os.path.join(args.out, n), _text(n, obj)) for n, obj in files.items()])
        gc.collect(0)  # an indented json.dumps leaves a cycle that can keep an arena resident
        if args.command == "predict" and files["predict_summary.json"]["diverged"]:
            print("sillkoop: numerical: trajectory diverged; output truncated", file=sys.stderr)
            return 3
        return 0
    # LinAlgError subclasses ValueError, so it must be caught first
    except (QuadratureError, ClosureBoundError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"sillkoop: numerical: {_one_line(exc)}", file=sys.stderr)
        return 3
    # RecursionError: json.load of a file nested too deeply to parse
    except (OSError, ValueError, RecursionError) as exc:
        print(f"sillkoop: bad-input: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
