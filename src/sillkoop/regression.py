"""Koopman generator / operator regression over lifted snapshots.

Fits the N x N matrix K that best maps lifted measurements psi(y) to their
targets: d(psi)/dt in continuous time (assembled from measured derivatives
through the dictionary Jacobian) or psi(y+) in discrete time.  The solver
is ridge-regularized least squares; with ridge = 0 it returns the
minimum-norm solution, so rank-deficient lift Gram matrices are handled
without failure.

Models are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .dictionary import SillDictionary, _write_csv, _write_json, grad_conjunctive, lift

__all__ = [
    "SnapshotSet",
    "KoopmanModel",
    "Trajectory",
    "ResidualReport",
    "lift_derivatives",
    "solve_koopman_ls",
    "fit_generator",
    "fit_edmd",
    "project_state",
    "predict_ct",
    "residual",
    "save_snapshots",
    "load_snapshots",
    "save_model",
    "load_model",
]

CT = "CT"
DT = "DT"


@dataclass(frozen=True)
class SnapshotSet:
    """r paired samples: measurements Y and companions D.

    In CT mode D holds measured time derivatives dy/dt; in DT mode it
    holds the successor measurements y+ and dt records the sampling
    interval.  dt is present exactly when mode is DT.
    """

    Y: np.ndarray
    D: np.ndarray
    mode: str
    dt: float | None = None

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        D = np.asarray(self.D, dtype=float)
        if Y.ndim != 2 or D.ndim != 2:
            # a flat vector is ambiguous between one point and an m=1 batch
            raise ValueError("Y and D must be 2-D, one snapshot per row")
        if Y.shape != D.shape:
            raise ValueError(f"Y has shape {Y.shape}, D has shape {D.shape}")
        if Y.shape[0] < 1:
            raise ValueError("snapshot set is empty")
        if not (np.isfinite(Y).all() and np.isfinite(D).all()):
            raise ValueError("snapshot data contains non-finite values")
        if self.mode not in (CT, DT):
            raise ValueError(f"mode must be 'CT' or 'DT', got {self.mode!r}")
        if self.mode == DT:
            if self.dt is None or not self.dt > 0:
                raise ValueError("DT snapshots require a positive dt")
        elif self.dt is not None:
            raise ValueError("dt is only meaningful for DT snapshots")
        Y.setflags(write=False)
        D.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "D", D)

    @property
    def r(self) -> int:
        return self.Y.shape[0]

    @property
    def m(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class KoopmanModel:
    """A fitted N x N matrix K bound to its dictionary and mode."""

    K: np.ndarray
    dictionary: SillDictionary
    mode: str
    ridge: float = 0.0

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        n = self.dictionary.size
        if K.shape != (n, n):
            raise ValueError(f"K must be {n}x{n}, got {K.shape}")
        if not np.isfinite(K).all():
            raise ValueError("K contains non-finite entries")
        if self.mode not in (CT, DT):
            raise ValueError(f"mode must be 'CT' or 'DT', got {self.mode!r}")
        if not self.ridge >= 0:
            raise ValueError("ridge must be non-negative")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)


@dataclass(frozen=True)
class Trajectory:
    """Integrated measurement trajectory with a divergence flag.

    y has one row per accepted step (row 0 is the initial condition);
    diverged marks a truncation caused by a non-finite state.
    """

    y: np.ndarray
    diverged: bool = False


@dataclass(frozen=True)
class ResidualReport:
    """Residual matrix plus its summary statistics.

    matrix is r x N, one residual row per snapshot; per_function_max holds
    the max absolute residual for each dictionary coordinate.
    """

    matrix: np.ndarray
    max_row_norm: float
    mean_row_norm: float
    per_function_max: np.ndarray


def lift_derivatives(s: SnapshotSet, d: SillDictionary):
    """Time derivative of the lift at each snapshot, shape (r, N).

    Row i is the dictionary Jacobian at y_i applied to the measured
    derivative: column 0 is identically zero, columns 1..m copy D, and
    each logistic column is grad . dy/dt.
    """
    if s.mode != CT:
        raise ValueError("lifted derivatives require CT snapshots")
    if s.m != d.m:
        raise ValueError(f"snapshots have m={s.m}, dictionary has m={d.m}")
    out = np.empty((s.r, d.size))
    out[:, 0] = 0.0
    out[:, 1 : 1 + d.m] = s.D
    grads = grad_conjunctive(s.Y[:, None, :], d)  # (r, N_L, m)
    out[:, 1 + d.m :] = np.einsum("rkm,rm->rk", grads, s.D)
    return out


def solve_koopman_ls(G, A, ridge: float):
    """Minimize ||A - K G||_F^2 + ridge ||K||_F^2 over K.

    G and A are N x r with one lifted sample per column.  With ridge > 0
    the normal equations K (G G^T + ridge I) = A G^T are solved directly;
    at ridge = 0 the minimum-norm least-squares solution is returned, so
    rank deficiency (r < N or collinear lifts) is well defined.
    """
    G = np.asarray(G, dtype=float)
    A = np.asarray(A, dtype=float)
    if G.ndim != 2 or A.shape != G.shape:
        raise ValueError(f"G and A must share shape, got {G.shape} and {A.shape}")
    if not (np.isfinite(G).all() and np.isfinite(A).all()):
        raise ValueError("non-finite data in least-squares system")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if ridge > 0:
        gram = G @ G.T + ridge * np.eye(G.shape[0])
        return np.linalg.solve(gram, G @ A.T).T
    kt, *_ = np.linalg.lstsq(G.T, A.T, rcond=None)
    return kt.T


def _target(s: SnapshotSet, d: SillDictionary):
    """Regression target of each snapshot, shape (r, N).

    CT snapshots map to the lifted derivatives, DT snapshots to the lifted
    successors psi(y+).
    """
    if s.m != d.m:
        raise ValueError(f"snapshots have m={s.m}, dictionary has m={d.m}")
    return lift_derivatives(s, d) if s.mode == CT else lift(s.D, d)


def _fit(s: SnapshotSet, d: SillDictionary, ridge: float, mode: str) -> KoopmanModel:
    if s.mode != mode:
        raise ValueError(f"a {mode} fit requires {mode} snapshots, got {s.mode}")
    A = _target(s, d).T
    return KoopmanModel(solve_koopman_ls(lift(s.Y, d).T, A, ridge), d, mode, ridge)


def fit_generator(s: SnapshotSet, d: SillDictionary, ridge: float = 0.0) -> KoopmanModel:
    """Fit the CT generator approximation from (y, dy/dt) snapshots."""
    return _fit(s, d, ridge, CT)


def fit_edmd(s: SnapshotSet, d: SillDictionary, ridge: float = 0.0) -> KoopmanModel:
    """Fit the DT operator approximation from (y, y+) snapshots."""
    return _fit(s, d, ridge, DT)


def project_state(z, d: SillDictionary):
    """Measurement block of a lifted vector: components 1..m."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != d.size:
        raise ValueError(f"expected lifted vectors of length {d.size}, got {z.shape}")
    return z[..., 1 : 1 + d.m]


def predict_ct(model: KoopmanModel, y0, horizon: float, dt: float) -> Trajectory:
    """Step dz/dt = K z from z0 = lift(y0) with its exact propagator.

    The flow of the lifted linear system over one step is expm(K dt), so
    each row is z_k = expm(K dt)^k z0 projected onto the measurements:
    there is no step-size error, and dt only sets where the trajectory is
    sampled.  A non-finite state (the model itself is unstable) stops the
    trajectory and flags it; overflow is reported through that flag, not
    a warning.
    """
    if model.mode != CT:
        raise ValueError("predict_ct requires a CT model")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    n = horizon / dt
    if not np.isfinite(n):
        raise ValueError(f"horizon / dt = {n} is not a finite step count")
    steps = int(round(n))
    y0 = np.asarray(y0, dtype=float)
    d = model.dictionary
    z = lift(y0, d)
    y = np.empty((steps + 1, d.m))
    y[0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(dt * model.K)
        for i in range(1, steps + 1):
            z = step @ z
            if not np.isfinite(z).all():
                return Trajectory(y[:i], True)
            y[i] = z[1 : 1 + d.m]
    return Trajectory(y, False)


def residual(model: KoopmanModel, s: SnapshotSet) -> ResidualReport:
    """Closure residual eps(y) = target - K psi(y) at every snapshot.

    CT targets are the lifted derivatives; DT targets are the lifted
    successors.  The report summarizes row 2-norms and the per-coordinate
    max absolute residual.
    """
    if model.mode != s.mode:
        raise ValueError(f"model mode {model.mode} does not match snapshots {s.mode}")
    d = model.dictionary
    R = _target(s, d) - lift(s.Y, d) @ model.K.T
    norms = np.linalg.norm(R, axis=1)
    return ResidualReport(
        matrix=R,
        max_row_norm=float(norms.max()),
        mean_row_norm=float(norms.mean()),
        per_function_max=np.abs(R).max(axis=0),
    )


# ---------------------------------------------------------------------------
# file formats: snapshot CSV + sidecar manifest, model JSON


def _format(v: float) -> str:
    # 17 significant digits round-trip any float64 exactly
    return format(float(v), ".17g")


def save_snapshots(s: SnapshotSet, csv_path, manifest_path) -> None:
    """Write `y1..ym,d1..dm` rows plus the {"mode", "dt"} sidecar."""
    m = s.m
    header = ",".join([f"y{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)])
    rows = ([_format(v) for v in np.concatenate([yi, di])] for yi, di in zip(s.Y, s.D))
    _write_csv(csv_path, header, rows)
    _write_json(manifest_path, {"mode": s.mode, "dt": s.dt})


def load_snapshots(csv_path, manifest_path) -> SnapshotSet:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "mode" not in manifest:
        raise ValueError(f"{manifest_path}: missing 'mode'")
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{csv_path}: line 1: empty snapshot file")
    cols = lines[0].split(",")
    if len(cols) % 2 != 0:
        raise ValueError(f"{csv_path}: line 1: header needs y1..ym,d1..dm columns")
    m = len(cols) // 2
    expected = [f"y{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)]
    if cols != expected:
        raise ValueError(f"{csv_path}: line 1: header {cols} != {expected}")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2 * m:
            raise ValueError(
                f"{csv_path}: line {lineno}: expected {2 * m} fields, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{csv_path}: line {lineno}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    return SnapshotSet(data[:, :m], data[:, m:], manifest["mode"], manifest.get("dt"))


def save_model(model: KoopmanModel, path) -> None:
    obj = {
        "mode": model.mode,
        "ridge": model.ridge,
        "dictionary": model.dictionary.to_dict(),
        "K": model.K.ravel().tolist(),
    }
    _write_json(path, obj)


def load_model(path) -> KoopmanModel:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    d = SillDictionary.from_dict(obj["dictionary"])
    K = np.asarray(obj["K"], dtype=float).reshape(d.size, d.size)
    return KoopmanModel(K, d, obj["mode"], obj["ridge"])
