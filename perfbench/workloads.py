"""The benchmark's workloads: inputs, operations and output checks.

Each builder makes its inputs once from the seed (set-up, not timed) and
returns the operations of one iteration in order.  An operation is either
a library call (the Quickstart path samples snapshots through the library;
no CLI command does that) or one in-process ``sillkoop.cli.main(argv)``
call.  Library functions are always looked up as module attributes at
call time, so the tracer's wrappers see them.

Why each workload exists:

* generator-closure: the generator pipeline, then the closure sweep.
  - The pipeline is the Quickstart path at working size: wide lift
    batches through the dictionary kernel, the least-squares solver, CSV
    I/O and the lifted RK4 loop.
  - The sweep is closure, theorem1 and example1 on fixed configs.  The
    dictionary kernel runs on small arrays many times, once per logistic
    and scale, and join completion runs at every scale, so per-call
    overhead and duplicated work dominate.  The configs are fixed rather
    than seeded: most random m=2..3 dictionaries stop at the per-function
    bound check (exit 3) at scales 1..8, so seeded configs would time
    early exits.
  The two share one workload so that each run is long enough to be
  steady on a small shared host within the benchmark's time limit.
* sampling-stats: the README stats config.  Huge 1-D sigmoid arrays and
  Monte Carlo loops, no dictionary objects and no solver, so it is the
  workload that bypasses every dictionary, regression and closure change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sillkoop import bench, cli, closure, dictionary, regression


@dataclass
class Op:
    """One timed step of an iteration.

    ``out`` is a directory whose files must repeat byte for byte across
    iterations; ``check(out)`` returns a reason when the outputs are wrong.
    ``tag`` tells apart operations that run one command on several configs.
    """

    name: str
    run: Callable[[], int]
    out: Path | None = None
    check: Callable[[Path], str | None] | None = None
    tag: str = ""

    @property
    def is_cli(self) -> bool:
        return self.name.startswith("cmd.")


def _cli_op(command, cfg: dict, work: Path, seed: int, check=None, tag=""):
    label = command + (f"-{tag}" if tag else "")
    cfg_path = work / f"cfg_{label}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    out = work / f"out_{label}"
    argv = [command, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
    return Op(f"cmd.{command}", lambda: cli.main(argv), out, check, tag)


# ---------------------------------------------------------------------------
# join closure, recomputed with numpy independently of the library


def _join(mu_a, al_a, mu_b, al_b):
    mu = np.maximum(mu_a, mu_b)
    al = np.where(mu_b > mu_a, al_b, np.where(mu_a > mu_b, al_a, np.maximum(al_a, al_b)))
    return mu, al


def _pair_joins(mu, al):
    i, j = np.triu_indices(mu.shape[0], 1)
    return _join(mu[i], al[i], mu[j], al[j])


def _rows(mu, al) -> set:
    return set(map(tuple, np.hstack([mu, al]).tolist()))


def _closure_size(mu, al) -> int:
    m = mu.shape[1]
    rows = _rows(mu, al)
    while True:
        arr = np.array(sorted(rows))
        grown = rows | _rows(*_pair_joins(arr[:, :m], arr[:, m:]))
        if len(grown) == len(rows):
            return len(rows)
        rows = grown


def _check_join_closed(path: Path, mu0, al0):
    obj = json.loads(path.read_text())
    mu = np.array([f["mu"] for f in obj["logistics"]], dtype=float)
    al = np.array([f["alpha"] for f in obj["logistics"]], dtype=float)
    n0 = mu0.shape[0]
    if not (np.array_equal(mu[:n0], mu0) and np.array_equal(al[:n0], al0)):
        return "completed dictionary does not keep the original logistics first"
    missing = _rows(*_pair_joins(mu, al)) - _rows(mu, al)
    if missing:
        return f"completed dictionary misses {len(missing)} pairwise joins"
    return None


# ---------------------------------------------------------------------------
# generator pipeline


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _field(y, mu, al, W):
    lam = _sigmoid(al * (y[:, None, :] - mu)).prod(axis=-1)
    return lam @ W.T


def _flow(y, mu, al, W, dt, substeps=4):
    h = dt / substeps
    for _ in range(substeps):
        k1 = _field(y, mu, al, W)
        k2 = _field(y + 0.5 * h * k1, mu, al, W)
        k3 = _field(y + 0.5 * h * k2, mu, al, W)
        k4 = _field(y + h * k3, mu, al, W)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


GENERATOR_SIZES = {
    # field logistics, completed logistics, lattice points per dim, predict steps
    "full": (12, 44, 40, 10_000),
    "toy": (4, 8, 6, 100),
}


def generator_pipeline(work: Path, seed: int, size: str) -> list:
    n_field, n_completed, lattice, steps = GENERATOR_SIZES[size]
    rng = np.random.default_rng(seed)
    # redraw until join completion has the fixed size, so every seed costs
    # the same and per-layer counts repeat exactly across seeds
    while True:
        mu = rng.uniform(-2.0, 2.0, (n_field, 2))
        al = rng.uniform(3.0, 6.0, (n_field, 2))
        if _closure_size(mu, al) == n_completed:
            break
    W = rng.normal(0.0, 0.5, (2, n_field))
    y0 = rng.uniform(-1.5, 1.5, 2)

    d = dictionary.SillDictionary(
        2, tuple(dictionary.ConjLogistic(m, a) for m, a in zip(mu, al))
    )
    dictionary.save_dictionary(d, work / "dictionary.json")
    field_fn = bench.spanned_field(closure.SpannedField(d, W))
    grid = closure.lattice_grid([(-3.0, 3.0), (-3.0, 3.0)], lattice)
    dt_pairs = regression.SnapshotSet(grid, _flow(grid, mu, al, W, 0.05), "DT", dt=0.05)
    regression.save_snapshots(dt_pairs, work / "dt.csv", work / "dt_manifest.json")

    snap_dir = work / "snapshots"
    snap_dir.mkdir()
    state = {}

    def sample():
        state["snaps"] = bench.make_snapshots(field_fn, grid)
        return 0

    def save():
        regression.save_snapshots(
            state.pop("snaps"), snap_dir / "ct.csv", snap_dir / "ct_manifest.json"
        )
        return 0

    completed = work / "out_complete-dictionary" / "dictionary_completed.json"
    model = work / "out_fit" / "model.json"
    predict_dt = 2e-4

    def check_predict(out):
        summary = json.loads((out / "predict_summary.json").read_text())
        if summary["diverged"]:
            return "prediction diverged"
        with open(out / "trajectory.csv", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if summary["rows"] != steps + 1 or lines != steps + 2:
            return f"prediction has {summary['rows']} rows, {lines - 1} in the CSV"
        return None

    fit_cfg = {
        "snapshots_csv": str(snap_dir / "ct.csv"),
        "snapshots_manifest": str(snap_dir / "ct_manifest.json"),
        "dictionary": str(completed),
        "ridge": 1e-8,
    }
    edmd_cfg = dict(
        fit_cfg,
        snapshots_csv=str(work / "dt.csv"),
        snapshots_manifest=str(work / "dt_manifest.json"),
    )
    predict_cfg = {
        "model": str(model),
        "y0": y0.tolist(),
        "horizon": steps * predict_dt,
        "dt": predict_dt,
    }
    return [
        Op("lib.make_snapshots", sample),
        Op("lib.save_snapshots", save, snap_dir),
        _cli_op(
            "complete-dictionary",
            {"dictionary": str(work / "dictionary.json")},
            work,
            seed,
            lambda out: _check_join_closed(out / "dictionary_completed.json", mu, al),
        ),
        _cli_op("fit", fit_cfg, work, seed),
        _cli_op("edmd", edmd_cfg, work, seed),
        _cli_op("predict", predict_cfg, work, seed, check_predict),
    ]


# ---------------------------------------------------------------------------
# closure sweep

# The README closure config: centers at quarter-cell offsets of the 9-point
# lattice, so both the lattice and its half-cell shift keep clear of them.
README_CLOSURE = {
    "m": 2,
    "logistics": [
        {"mu": [-1.225, 0.525], "alpha": [7.0, 7.4]},
        {"mu": [0.175, -0.875], "alpha": [7.6, 6.9]},
        {"mu": [-0.525, 1.225], "alpha": [7.2, 7.8]},
    ],
    "W": [[0.8, -0.5, 0.3], [-0.4, 0.6, 0.7]],
    "grid": {"box": [[-2.8, 2.8], [-2.8, 2.8]], "points_per_dim": 9, "delta": 0.17},
    "alpha_scales": [1, 2, 4, 8, 64],
    "ridge": 0.0,
}

# Larger dictionaries built the same way (centers at quarter-cell offsets of
# the lattice); both pass the per-function bound check at every scale.
CLOSURE_M2 = {
    "m": 2,
    "logistics": [
        {"mu": [1.516667, 0.583333], "alpha": [6.5, 6.1]},
        {"mu": [-2.216667, -2.216667], "alpha": [7.6, 7.8]},
        {"mu": [0.116667, 0.583333], "alpha": [7.5, 7.1]},
        {"mu": [0.116667, 1.983333], "alpha": [7.6, 6.0]},
        {"mu": [-0.816667, 1.516667], "alpha": [6.1, 7.5]},
        {"mu": [1.516667, -1.75], "alpha": [7.7, 7.1]},
        {"mu": [-2.216667, -1.283333], "alpha": [6.8, 6.1]},
        {"mu": [-2.216667, -1.75], "alpha": [7.3, 7.3]},
    ],
    "W": [
        [0.18, -0.19, 0.8, 0.77, 0.3, 0.24, 0.3, -0.18],
        [-0.58, 0.35, 0.04, -0.3, -0.02, 0.62, 0.69, -0.23],
    ],
    "grid": {"box": [[-2.8, 2.8], [-2.8, 2.8]], "points_per_dim": 13, "delta": 0.112},
    "alpha_scales": [1, 2, 4, 8, 64],
    "ridge": 0.0,
}

CLOSURE_M3 = {
    "m": 3,
    "logistics": [
        {"mu": [1.088889, -2.022222, -1.4], "alpha": [7.6, 7.2, 6.2]},
        {"mu": [-1.4, -0.777778, -0.155556], "alpha": [7.0, 6.3, 7.5]},
        {"mu": [-2.022222, -2.022222, -0.155556], "alpha": [7.0, 6.9, 7.2]},
        {"mu": [-0.777778, -1.4, 1.088889], "alpha": [7.9, 6.6, 7.3]},
        {"mu": [0.466667, 0.466667, 1.711111], "alpha": [6.0, 7.9, 6.6]},
        {"mu": [-0.777778, -2.022222, -0.777778], "alpha": [7.8, 7.2, 6.9]},
        {"mu": [-1.4, 1.088889, -0.155556], "alpha": [7.4, 6.7, 6.2]},
        {"mu": [-2.022222, 0.466667, 0.466667], "alpha": [7.9, 6.4, 7.3]},
    ],
    "W": [
        [-0.32, 0.39, 0.36, -0.45, 0.53, 0.25, 0.29, 0.51],
        [-0.11, 0.41, 0.61, -0.64, 0.56, -0.17, -0.03, -0.57],
        [0.32, -0.33, 0.59, -0.36, 0.1, -0.16, 0.18, -0.49],
    ],
    "grid": {
        "box": [[-2.8, 2.8], [-2.8, 2.8], [-2.8, 2.8]],
        "points_per_dim": 10,
        "delta": 0.1493,
    },
    "alpha_scales": [1, 2, 4, 8, 64],
    "ridge": 0.0,
}

CLOSURE_SIZES = {
    # closure configs, theorem1 points per dim, example1 degrees and points
    "full": ([("readme", README_CLOSURE), ("m2", CLOSURE_M2), ("m3", CLOSURE_M3)],
             120, [1, 2, 3, 4, 5], 2001),
    "toy": ([("readme", README_CLOSURE)], 8, [1, 2, 3], 201),
}


def _check_closure(out: Path):
    rows = (out / "closure.csv").read_text().split()[1:]
    residuals = [float(r.split(",")[1]) for r in rows]
    if not residuals[0] >= 100.0 * residuals[-1]:
        return f"residual fell only from {residuals[0]:.3g} to {residuals[-1]:.3g}"
    return None


def _check_theorem1(out: Path):
    fit = json.loads((out / "decay_fit.json").read_text())
    return None if fit["slope"] < 0 else f"product error does not decay (slope {fit['slope']})"


def _check_example1(out: Path, degrees):
    summary = json.loads((out / "example1_summary.json").read_text())
    for n in degrees:
        slope = summary["growth_slopes"][str(n)]
        if abs(slope - (n + 1)) > 0.05:
            return f"degree {n} residual grows with slope {slope}, not {n + 1}"
    if not np.isfinite(summary["sill_residual_max"]):
        return "bounded SILL fit has a non-finite residual"
    return None


def closure_sweep(work: Path, seed: int, size: str) -> list:
    configs, thm_points, degrees, fit_points = CLOSURE_SIZES[size]
    ops = []
    for tag, cfg in configs:
        ops.append(_cli_op("closure", cfg, work, seed, _check_closure, tag))
    thm = {
        "f": {"mu": [0.0, 0.0], "alpha": [2.5, 3.0]},
        "g": {"mu": [1.0, 1.2], "alpha": [3.0, 2.5]},
        "grid": {"box": [[-3.0, 4.0], [-3.0, 4.0]], "points_per_dim": thm_points, "delta": 0.5},
        "scales": [1, 2, 3, 4, 6, 8],
    }
    ops.append(_cli_op("theorem1", thm, work, seed, _check_theorem1))
    ex1 = {
        "degrees": degrees,
        "fit_range": [-10.0, 10.0],
        "fit_points": fit_points,
        "sill": {
            "centers": [-1.2, -0.4, 0.4, 1.2],
            "alpha": 4.0,
            "box": [-2.0, 2.0],
            "points": 41,
            "ridge": 1e-8,
        },
    }
    ops.append(
        _cli_op("example1", ex1, work, seed, lambda out: _check_example1(out, degrees))
    )
    return ops


# ---------------------------------------------------------------------------
# sampling-stats

STATS_SIZES = {
    "full": {
        "a_values": [1.0, 2.0, 4.0, 8.0],
        "quad_points": 200,
        "samples": 1_000_000,
        "m_values": [1, 2, 3, 4, 5, 6],
        "rate_a": 2.0,
    },
    "toy": {
        "a_values": [1.0, 2.0],
        "quad_points": 200,
        "samples": 20_000,
        "m_values": [1, 2, 3],
        "rate_a": 2.0,
    },
}


def _csv_rows(path: Path) -> list:
    lines = path.read_text().split()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def _check_stats(out: Path):
    for row in _csv_rows(out / "moments.csv"):
        if abs(row["expectation"] - 0.5) > 1e-9:
            return f"quadrature expectation {row['expectation']!r} at a={row['a']}"
        if abs(row["mc_expectation"] - 0.5) > 5.0 * row["mc_stderr"]:
            return f"MC expectation {row['mc_expectation']!r} at a={row['a']}"
    for row in _csv_rows(out / "conjunctive.csv"):
        if abs(row["estimate"] - 2.0 ** -row["m"]) > 5.0 * row["stderr"]:
            return f"conjunctive estimate {row['estimate']!r} at m={row['m']:g}"
    return None


def generator_closure(work: Path, seed: int, size: str) -> list:
    return generator_pipeline(work, seed, size) + closure_sweep(work, seed, size)


def sampling_stats(work: Path, seed: int, size: str) -> list:
    return [_cli_op("stats", STATS_SIZES[size], work, seed, _check_stats)]


WORKLOADS = {
    "generator-closure": generator_closure,
    "sampling-stats": sampling_stats,
}
