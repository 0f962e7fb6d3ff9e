"""On-disk formats: matrix CSV, trajectory CSV, and learned-model folders.

Matrices are row-major comma-separated values with a one-line "rows,cols"
header. Fitted regressors add a "candidate,<index>" line before the matrix
so they can be reattached to a decoder class on load. Floats are written
with repr-roundtrip precision so identical runs produce identical bytes.
"""
from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .phase1 import Phase1Output
from .phase2 import SysIdEstimates
from .phase3 import (DecoderStack, InitialStatePieces, LearnedPolicy,
                     certainty_equivalent_dare, initial_gain)
from .regression import DecoderClass, FittedRegressor
from .system import SystemSpec


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix_lines(m: np.ndarray) -> list[str]:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return [f"{m.shape[0]},{m.shape[1]}"] + [",".join(_fmt(v) for v in row) for row in m]


@contextmanager
def _loading(path: Path):
    """Raise a missing or malformed file as a ValidationError naming it."""
    try:
        yield
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise ValidationError(f"{path}: missing or malformed ({exc!r})") from None


def _parse_matrix(lines: list[str], shape: tuple | None = None) -> np.ndarray:
    """The finite matrix whose "rows,cols" header is lines[0] and counts every later
    line, so a missing or an extra row is refused; of the given shape, if any."""
    rows, cols = (int(v) for v in lines[0].split(","))
    if len(lines) != 1 + rows:
        raise ValueError(f"header says {rows} rows, {len(lines) - 1} follow")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if data.shape != (rows, cols):
        raise ValueError(f"header says {rows}x{cols}, data is {data.shape}")
    if shape is not None and data.shape != shape:
        raise ValueError(f"shape {data.shape}, expected {shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite entry")
    return data


def save_matrix(path: Path, m: np.ndarray) -> None:
    Path(path).write_text("\n".join(_matrix_lines(m)) + "\n")


def load_matrix(path: Path, shape: tuple | None = None) -> np.ndarray:
    with _loading(path):
        return _parse_matrix(Path(path).read_text().strip().splitlines(), shape)


def save_regressor(path: Path, reg: FittedRegressor) -> None:
    lines = [f"candidate,{reg.candidate_index}"] + _matrix_lines(reg.m)
    Path(path).write_text("\n".join(lines) + "\n")


def load_regressor(path: Path, decoder_class: DecoderClass,
                   shape: tuple | None = None) -> FittedRegressor:
    with _loading(path):
        lines = Path(path).read_text().strip().splitlines()
        tag, idx = lines[0].split(",")
        if tag != "candidate" or not 0 <= int(idx) < len(decoder_class):
            raise ValueError(f"expected candidate,<index in [0, {len(decoder_class)})>")
        return FittedRegressor(candidate_index=int(idx), m=_parse_matrix(lines[1:], shape),
                               empirical_loss=float("nan"), decoder_class=decoder_class)


def save_key_values(path: Path, pairs: list[tuple[str, object]]) -> None:
    lines = [f"{k},{_fmt(v) if isinstance(v, float) else v}" for k, v in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def load_key_values(path: Path, kinds: dict) -> dict:
    """{key: kind(value)} for each key: kind in kinds, read off "key,value" lines."""
    with _loading(path):
        raw = {}
        for line in Path(path).read_text().strip().splitlines():
            key, value = line.split(",", 1)
            if key in raw:
                raise ValueError(f"duplicate key {key!r}")
            raw[key] = value
        return {key: kind(raw[key]) for key, kind in kinds.items()}


def export_trajectories_csv(path: Path, batch) -> None:
    """Rows (traj, t, x_*, y_*, u_*, c); the cost column is blank at t = 0."""
    d_x = batch.states.shape[2]
    d_y = batch.observations.shape[2]
    d_u = batch.inputs.shape[2]
    header = (["traj", "t"] + [f"x_{i}" for i in range(d_x)]
              + [f"y_{i}" for i in range(d_y)] + [f"u_{i}" for i in range(d_u)] + ["c"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(batch.n_traj):
            for t in range(batch.horizon + 1):
                row = ([i, t] + [_fmt(v) for v in batch.states[i, t]]
                       + [_fmt(v) for v in batch.observations[i, t]]
                       + [_fmt(v) for v in batch.inputs[i, t]]
                       + ([_fmt(batch.costs[i, t])] if t >= 1 else [""]))
                writer.writerow(row)


# ---------------------------------------------------------------------------
# Model folders


def save_phase1(outdir: Path, out: Phase1Output) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_regressor(outdir / "h_id.csv", out.h_id)
    save_matrix(outdir / "v_id.csv", out.v_id)
    save_key_values(outdir / "meta.csv", [("kappa0", out.kappa0), ("kappa1", out.kappa1)])


def load_phase1(outdir: Path, decoder_class: DecoderClass, spec: SystemSpec) -> Phase1Output:
    """The saved coarse decoder; 0 <= kappa0 < kappa1, and its matrices are (kappa d_u) x d_x."""
    outdir = Path(outdir)
    meta = load_key_values(outdir / "meta.csv", {"kappa0": int, "kappa1": int})
    if not 0 <= meta["kappa0"] < meta["kappa1"]:
        raise ValidationError(f"{outdir / 'meta.csv'}: needs 0 <= kappa0 < kappa1")
    shape = ((meta["kappa1"] - meta["kappa0"]) * spec.d_u, spec.d_x)
    return Phase1Output(h_id=load_regressor(outdir / "h_id.csv", decoder_class, shape),
                        v_id=load_matrix(outdir / "v_id.csv", shape),
                        kappa0=meta["kappa0"], kappa1=meta["kappa1"],
                        eigenvalues=np.array([]))


_ESTIMATES = ("a_hat", "b_hat", "sigma_w_hat", "q_hat")


def save_sysid(outdir: Path, est: SysIdEstimates) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in _ESTIMATES:
        save_matrix(outdir / f"{name}.csv", getattr(est, name))


def load_sysid(outdir: Path, spec: SystemSpec) -> SysIdEstimates:
    """The saved estimates; b_hat must be d_x x d_u and the other three d_x x d_x."""
    outdir = Path(outdir)
    return SysIdEstimates(**{name: load_matrix(outdir / f"{name}.csv", (
        spec.d_x, spec.d_u if name == "b_hat" else spec.d_x)) for name in _ESTIMATES})


def save_policy(outdir: Path, learned: LearnedPolicy) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stack = learned.stack
    for t, reg in enumerate(stack.residual_regressors):
        save_regressor(outdir / f"h_{t}.csv", reg)
    save_regressor(outdir / "init_h_ol1.csv", stack.initial.h_ol1)
    save_regressor(outdir / "init_h_ol0.csv", stack.initial.h_ol0)
    save_matrix(outdir / "init_sigma_cov.csv", stack.initial.sigma_cov)
    save_key_values(outdir / "meta.csv", [
        ("sigma", float(learned.sigma)),
        ("b_bar", float(stack.b_bar)),
        ("t_horizon", learned.t_horizon),
        ("trajectories_used", learned.trajectories_used),
    ])


def load_policy(outdir: Path, decoder_class: DecoderClass, spec: SystemSpec,
                estimates: SysIdEstimates) -> LearnedPolicy:
    """The saved policy, acting on the identified system of estimates (see load_sysid);
    every matrix must have the shape spec's d_x and d_u imply, and its meta.csv
    values must be ones a run can produce. The gain K and the initial-state gain
    are not saved: phase 3's certainty_equivalent_dare and initial_gain rebuild
    them from estimates and init_sigma_cov.csv, raising as they do in phase 3."""
    outdir = Path(outdir)
    meta = load_key_values(outdir / "meta.csv", {"sigma": float, "b_bar": float,
                                                 "t_horizon": int, "trajectories_used": int})
    if not (0.0 < meta["sigma"] <= 1.0 and 0.0 < meta["b_bar"] < math.inf
            and meta["trajectories_used"] >= 0):
        raise ValidationError(f"{outdir / 'meta.csv'}: needs sigma in (0, 1], a finite "
                              "b_bar > 0 and trajectories_used >= 0")
    square = (spec.d_x, spec.d_x)
    residual_regressors = [load_regressor(outdir / f"h_{t}.csv", decoder_class, square)
                           for t in range(meta["t_horizon"])]
    h_ol1 = load_regressor(outdir / "init_h_ol1.csv", decoder_class, square)
    h_ol0 = load_regressor(outdir / "init_h_ol0.csv", decoder_class, square)
    sigma_cov = load_matrix(outdir / "init_sigma_cov.csv", square)
    if not np.array_equal(sigma_cov, sigma_cov.T):
        raise ValidationError(f"{outdir / 'init_sigma_cov.csv'}: not symmetric")
    dare = certainty_equivalent_dare(estimates, spec.r)
    stack = DecoderStack(a_hat=estimates.a_hat, b_hat=estimates.b_hat, k_gain=dare.k,
                         b_bar=meta["b_bar"], residual_regressors=residual_regressors)
    stack.initial = InitialStatePieces(h_ol1=h_ol1, sigma_cov=sigma_cov, h_ol0=h_ol0,
                                       gain=initial_gain(estimates.sigma_w_hat, sigma_cov))
    return LearnedPolicy(stack=stack, sigma=meta["sigma"],
                         trajectories_used=meta["trajectories_used"])


def write_report_csv(path: Path, report) -> None:
    """One row per metric; schema (column set and order) is fixed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in report.rows():
            if isinstance(value, float):
                writer.writerow([name, _fmt(value)])
            else:
                writer.writerow([name, value])


def write_decoder_errors_csv(path: Path, errors: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mse"])
        for t, e in enumerate(errors, start=1):
            writer.writerow([t, _fmt(e)])
