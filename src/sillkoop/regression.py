"""Koopman generator / operator regression over lifted snapshots.

Fits the N x N matrix K that best maps lifted measurements psi(y) to their
targets: d(psi)/dt in continuous time (assembled from measured derivatives
through the dictionary Jacobian) or psi(y+) in discrete time.  One function,
_system, builds every lift and target of a snapshot batch (in CT both from
one sigmoid table), and a fit reports its training residual from the
arrays it solved on.  One SVD of the lift solves the ridge-regularized
least squares for every ridge; at ridge = 0 it returns the minimum-norm
solution, so rank-deficient lifts are handled without failure.

Models are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dictionary import (
    SillDictionary,
    _checked,
    _csv_text,
    _frozen,
    _gradient,
    _json_object,
    _json_text,
    _lifted,
    _product,
    _sigmoid_table,
    _write_atomic,
    lift,
)

__all__ = [
    "SnapshotSet",
    "KoopmanModel",
    "solve_koopman_ls",
    "fit_generator",
    "fit_edmd",
    "predict_ct",
    "residual",
    "save_snapshots",
    "load_snapshots",
    "save_model",
    "load_model",
]

CT = "CT"
DT = "DT"
MAX_STEPS = 10_000_000
# predict_ct checks the lifted states for overflow once per block of steps
_BLOCK = 256
# Higham (2005) Pade-13 coefficients b_0..b_13, divided by b_0 so that the
# constant term is exactly 1.0 and _expm(0) is exactly the identity
_PADE13 = np.array(
    [
        64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
        129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
        40840800, 960960, 16380, 182, 1,
    ],
    dtype=float,
) / 64764752532480000
_THETA13 = 5.371920351148152


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
        Y, D = _frozen(self.Y), _frozen(self.D)
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
            if self.dt is None or not 0 < self.dt < np.inf:
                raise ValueError("DT snapshots require a positive finite dt")
        elif self.dt is not None:
            raise ValueError("dt is only meaningful for DT snapshots")
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
        K = _frozen(self.K)
        n = self.dictionary.size
        if K.shape != (n, n):
            raise ValueError(f"K must be {n}x{n}, got {K.shape}")
        if not np.isfinite(K).all():
            raise ValueError("K contains non-finite entries")
        if self.mode not in (CT, DT):
            raise ValueError(f"mode must be 'CT' or 'DT', got {self.mode!r}")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and non-negative, got {self.ridge}")
        object.__setattr__(self, "K", K)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ridge": self.ridge,
            "dictionary": self.dictionary.to_dict(),
            "K": self.K.ravel().tolist(),
        }


def _system(s: SnapshotSet, d: SillDictionary):
    """The regression pair (G, A) of s, its lift and target, each (r, N).

    DT: psi(y) and psi(y+).  CT: both from one sigmoid table at Y, the
    target applying the Jacobian factors alpha (1 - lambda) Lambda to dy/dt.
    """
    if s.m != d.m:
        raise ValueError(f"snapshots have m={s.m}, dictionary has m={d.m}")
    if s.mode == DT:
        return lift(s.Y, d), lift(s.D, d)
    table = _sigmoid_table(s.Y, d)
    return _ct_system(s.Y, s.D, d, table, _product(table, d.columns))


def _ct_system(Y, D, d: SillDictionary, table, values):
    """_system's CT pair of Y and D = dy/dt from d's sigmoid table and (r, N_L) values at Y."""
    grads = _gradient(table, d, values)  # (r, N_L, m)
    return _lifted(1.0, Y, values), _lifted(0.0, D, np.einsum("rkm,rm->rk", grads, D))


def solve_koopman_ls(G, A, ridge: float):
    """Minimize ||A - K G||_F^2 + ridge ||K||_F^2 over K.

    G and A are N x r with one lifted sample per column.  One SVD
    G^T = U diag(s) V^T gives K^T = V diag(f) U^T A^T with filter factors
    f = s / (s^2 + ridge), or 1 / (s + ridge / s) where s^2 + ridge
    overflows, zeroed at or below s_max * eps * max(N, r), the default
    rcond cutoff of numpy's least squares.  ridge = 0 gives the
    minimum-norm solution, so rank deficiency (r < N or collinear lifts) is
    well defined; ridge > 0, which must be finite, gives the exact ridge
    solution without the normal equations' squared condition number.
    A solution past the float range raises FloatingPointError.
    """
    G = np.asarray(G, dtype=float)
    A = np.asarray(A, dtype=float)
    if G.ndim != 2 or A.shape != G.shape:
        raise ValueError(f"G and A must share shape, got {G.shape} and {A.shape}")
    if not (np.isfinite(G).all() and np.isfinite(A).all()):
        raise ValueError("non-finite data in least-squares system")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and non-negative, got {ridge}")
    U, s, Vt = np.linalg.svd(G.T, full_matrices=False)
    keep = s > s[0] * np.finfo(float).eps * max(G.shape)
    with np.errstate(over="ignore"):  # s * s overflows once s passes about 1.34e154
        den = s * s + ridge
    f = np.divide(s, den, out=np.zeros_like(s), where=keep)
    big = keep & np.isinf(den)
    f[big] = 1.0 / (s[big] + ridge / s[big])
    with np.errstate(over="ignore", invalid="ignore"):  # G and A are finite
        K = ((Vt.T * f) @ (U.T @ A.T)).T
    if not np.isfinite(K).all():
        raise FloatingPointError("least-squares solution K overflows the float range")
    return K


def _fit(s: SnapshotSet, d: SillDictionary, ridge: float, mode: str) -> tuple:
    """The fitted model and its (r, N) training residual, residual(model, s)."""
    if s.mode != mode:
        raise ValueError(f"a {mode} fit requires {mode} snapshots, got {s.mode}")
    G, A = _system(s, d)
    model = KoopmanModel(solve_koopman_ls(G.T, A.T, ridge), d, mode, ridge)
    return model, A - G @ model.K.T


def fit_generator(s: SnapshotSet, d: SillDictionary, ridge: float = 0.0) -> KoopmanModel:
    """Fit the CT generator approximation from (y, dy/dt) snapshots."""
    return _fit(s, d, ridge, CT)[0]


def fit_edmd(s: SnapshotSet, d: SillDictionary, ridge: float = 0.0) -> KoopmanModel:
    """Fit the DT operator approximation from (y, y+) snapshots."""
    return _fit(s, d, ridge, DT)[0]


def _expm(A):
    """Matrix exponential by Pade-13 scaling and squaring.

    Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005: scale A by 2^-s until
    its 1-norm is at most theta_13, take the [13/13] Pade approximant and
    square s times.  The 1-norm of A must be finite.
    """
    norm = np.abs(A).sum(axis=0).max()
    s = max(0, int(np.frexp(norm / _THETA13)[1]))  # norm / 2^s < theta_13
    A = A / 2.0**s
    b = _PADE13
    eye = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    # numerator V + U and denominator V - U, odd powers in U, even in V
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    )
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def predict_ct(model: KoopmanModel, y0, horizon: float, dt: float) -> tuple:
    """Step dz/dt = K z from z0 = lift(y0) with its exact propagator.

    The flow of the lifted linear system over one step is expm(K dt), so
    each row is z_k = expm(K dt)^k z0 projected onto the measurements:
    there is no step-size error, and dt only sets where the trajectory is
    sampled.  Each step is one gemv through the propagator's bound dot.
    Returns (y, diverged), one row of y per step, row 0 being y0.  A
    non-finite state (the model itself is unstable) truncates y at the
    last finite row and sets diverged; overflow is reported through that
    flag, not a warning.  A step count round(horizon / dt) above
    MAX_STEPS (10^7) is rejected before anything is allocated, and so is
    a non-finite y0; so is a dt at which dt * K overflows.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise ValueError("y0 contains non-finite entries")
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
    if steps > MAX_STEPS:
        raise ValueError(f"horizon / dt = {steps:.6g} steps exceeds the limit of {MAX_STEPS}")

    d = model.dictionary
    z = lift(y0, d)
    y = np.empty((steps + 1, d.m))
    y[0] = y0
    buf = np.empty((min(steps, _BLOCK), d.size))
    with np.errstate(over="ignore", invalid="ignore"):
        A = dt * model.K
        if not np.isfinite(np.abs(A).sum(axis=0)).all():
            raise ValueError(f"dt * K overflows the float range at dt = {dt}")
        step_dot = _expm(A).dot
        for start in range(1, steps + 1, _BLOCK):
            k = min(_BLOCK, steps + 1 - start)
            for row in buf[:k]:
                z = step_dot(z, out=row)
            y[start : start + k] = buf[:k, 1 : 1 + d.m]
            finite = np.isfinite(buf[:k]).all(axis=1)
            if not finite.all():  # end y before the first non-finite state
                return y[: start + int(finite.argmin())], True
    return y, False


def residual(model: KoopmanModel, s: SnapshotSet) -> np.ndarray:
    """Closure residual eps(y) = target - K psi(y), one row per snapshot, (r, N).

    CT targets are the lifted derivatives; DT targets are the lifted
    successors.
    """
    if model.mode != s.mode:
        raise ValueError(f"model mode {model.mode} does not match snapshots {s.mode}")
    G, A = _system(s, model.dictionary)
    return A - G @ model.K.T


# ---------------------------------------------------------------------------
# file formats: snapshot CSV + sidecar manifest, model JSON


def save_snapshots(s: SnapshotSet, csv_path, manifest_path) -> None:
    """Write `y1..ym,d1..dm` rows, one "%.17g" format each, and the {"mode", "dt"} sidecar."""
    m = s.m
    header = ",".join([f"y{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)])
    fmt = ",".join(["%.17g"] * (2 * m))
    rows = ([fmt % tuple(row)] for row in np.hstack([s.Y, s.D]).tolist())
    manifest = _json_text({"mode": s.mode, "dt": s.dt})
    _write_atomic([(csv_path, _csv_text(header, rows)), (manifest_path, manifest)])


def load_snapshots(csv_path, manifest_path) -> SnapshotSet:
    """Read save_snapshots' files; one float() map parses every field of the CSV."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = _json_object(json.load(fh), manifest_path, ("mode",))
    mode = _checked(manifest["mode"], str, manifest_path, "mode", "'CT' or 'DT'")
    dt = manifest.get("dt")
    if dt is not None:
        dt = _checked(dt, float, manifest_path, "dt", "sampling interval or null")
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]  # line k of the file is lines[k - 1]
    head = next((k for k, ln in enumerate(lines) if ln), None)
    if head is None:
        raise ValueError(f"{csv_path}: line 1: empty snapshot file")
    cols = lines[head].split(",")
    if len(cols) % 2 != 0:
        raise ValueError(f"{csv_path}: line {head + 1}: header needs y1..ym,d1..dm columns")
    m = len(cols) // 2
    expected = [f"y{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)]
    if cols != expected:
        raise ValueError(f"{csv_path}: line {head + 1}: header {cols} != {expected}")
    body = lines[head + 1 :]
    if not any(body):
        raise ValueError(f"{csv_path}: no snapshot rows after the header")
    for lineno, ln in enumerate(body, start=head + 2):
        if ln and ln.count(",") != 2 * m - 1:
            got = ln.count(",") + 1
            raise ValueError(f"{csv_path}: line {lineno}: expected {2 * m} fields, got {got}")
    try:  # blank lines are skipped
        values = list(map(float, ",".join(filter(None, body)).split(",")))
    except ValueError:  # name the first bad line
        for lineno, ln in enumerate(body, start=head + 2):
            try:
                list(map(float, ln.split(",") if ln else ()))
            except ValueError as exc:
                raise ValueError(f"{csv_path}: line {lineno}: {exc}") from exc
        raise
    data = np.reshape(values, (-1, 2 * m))
    return SnapshotSet(data[:, :m], data[:, m:], mode, dt)


def save_model(model: KoopmanModel, path) -> None:
    _write_atomic([(path, _json_text(model.to_dict()))])


def load_model(path) -> KoopmanModel:
    with open(path, "r", encoding="utf-8") as fh:
        obj = _json_object(json.load(fh), path, ("mode", "ridge", "dictionary", "K"))
    d = SillDictionary.from_dict(obj["dictionary"])
    n = d.size
    K = _checked(obj["K"], [float], "model", "K", f"{n}x{n} matrix, row by row")
    if len(K) != n * n:
        raise ValueError(f"model key 'K' has {len(K)} entries, a {n}x{n} matrix needs {n * n}")
    mode = _checked(obj["mode"], str, "model", "mode", "'CT' or 'DT'")
    ridge = _checked(obj["ridge"], float, "model", "ridge", "ridge penalty")
    return KoopmanModel(np.reshape(K, (n, n)), d, mode, ridge)
