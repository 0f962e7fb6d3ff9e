"""Ground-truth latent linear system, decodable emissions, and rollouts.

The simulator is vectorized across trajectories: a rollout advances a chunk
of rows one time step per iteration, reading each noise block from a named
substream so results are reproducible and independent of batch size and
chunking (see rng.py and _drive).
"""
from __future__ import annotations

import collections
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .control import controllability, open_loop_state_cov, psd_sqrt, quad_rows, row_sq_norms, rowmap, spectral_radius
from .errors import ValidationError

# Largest decode(emit(x)) error check_decodable accepts.
DECODE_TOL = 1e-9


@dataclass(frozen=True)
class SystemSpec:
    """Latent LQR instance: dynamics (A, B), costs (Q, R), noise (Sigma_w, Sigma_0)."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    sigma_w: np.ndarray
    sigma_0: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "q", "r", "sigma_w", "sigma_0"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        if self.a.shape[0] != self.a.shape[1]:
            raise ValidationError("A must be square")
        d_x = self.a.shape[0]
        if self.b.shape[0] != d_x:
            raise ValidationError("B row count must match A")
        for name, d in (("q", d_x), ("sigma_w", d_x), ("sigma_0", d_x)):
            if getattr(self, name).shape != (d, d):
                raise ValidationError(f"{name} must be {d}x{d}")
        if self.r.shape != (self.d_u, self.d_u):
            raise ValidationError("R must be d_u x d_u")

    @property
    def d_x(self) -> int:
        return self.a.shape[0]

    @property
    def d_u(self) -> int:
        return self.b.shape[1]

    def validate(self) -> None:
        """Enforce the benchmark-instance invariants.

        Q, R >= I, Sigma_w > 0, Sigma_0 >= 0, rho(A) < 1, (A, B) controllable.
        """
        if np.min(np.linalg.eigvalsh((self.q + self.q.T) / 2)) < 1.0 - 1e-9:
            raise ValidationError("Q must satisfy Q >= I")
        if np.min(np.linalg.eigvalsh((self.r + self.r.T) / 2)) < 1.0 - 1e-9:
            raise ValidationError("R must satisfy R >= I")
        if np.min(np.linalg.eigvalsh((self.sigma_w + self.sigma_w.T) / 2)) <= 0.0:
            raise ValidationError("Sigma_w must be positive definite")
        if np.min(np.linalg.eigvalsh((self.sigma_0 + self.sigma_0.T) / 2)) < -1e-12:
            raise ValidationError("Sigma_0 must be positive semidefinite")
        rho = spectral_radius(self.a)
        if rho >= 1.0:
            raise ValidationError(f"A must be stable, spectral radius = {rho:.4f}")
        if controllability(self.a, self.b).kappa_star is None:
            raise ValidationError("(A, B) must be controllable")


@dataclass(frozen=True)
class EmissionModel:
    """Deterministic observation map with an exact inverse decoder."""

    d_y: int
    emit: Callable[[np.ndarray], np.ndarray]
    true_decoder: Callable[[np.ndarray], np.ndarray]

    def emit_batch(self, x: np.ndarray) -> np.ndarray:
        y = self.emit(np.atleast_2d(x))
        return np.asarray(y, dtype=float)

    def decode_batch(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.true_decoder(np.atleast_2d(y)), dtype=float)

    def check_decodable(self, spec: SystemSpec, n: int = 10_000, seed: int = 0) -> float:
        """Max reconstruction error of decode(emit(x)) over n sampled states."""
        g = rngmod.generator(seed, rngmod.TAG_INSTANCE)
        scale = np.sqrt(np.clip(np.diag(spec.sigma_w) + np.diag(spec.sigma_0), 0.1, None))
        x = g.standard_normal((n, spec.d_x)) * scale * 2.0
        err = float(np.max(np.sqrt(row_sq_norms(self.decode_batch(self.emit_batch(x)) - x))))
        if err > DECODE_TOL:
            raise ValidationError(f"emission is not decodable: max error {err:.3g} > {DECODE_TOL}")
        return err


# ---------------------------------------------------------------------------
# Decoders usable inside policies


class CurrentObsDecoder:
    """Applies a fixed map to the current observation only (e.g. the true decoder)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def begin(self, n: int):
        return None

    def step(self, state, t: int, y: np.ndarray):
        return np.asarray(self.fn(y), dtype=float), None, state


@dataclass(frozen=True)
class PolicyDef:
    """Control law executed by rollout; open loop exactly when it has no decoders.

      open loop:     u_t = sigma * nu_t             (PolicyDef() is the zero policy)
      with decoders: u_t = K * decoder_t(y_{0:t}) + sigma * nu_t (a gain is required)

    The gain is stored as a 2-d float array, whatever array-like it is given as.
    """

    sigma: float = 0.0
    gain: Optional[np.ndarray] = None
    decoders: object = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.decoders is not None and self.gain is None:
            raise ValidationError("a policy with decoders requires a gain")
        if self.gain is not None:
            object.__setattr__(self, "gain", np.atleast_2d(np.asarray(self.gain, dtype=float)))

    def begin(self, n: int):
        """Decoder state for n trajectories."""
        if self.decoders is not None:
            return self.decoders.begin(n)
        return None

    def act(self, state, t: int, y: Optional[np.ndarray], nu: np.ndarray):
        """Inputs for all trajectories at time t, the decoder value behind them
        and its clip mask (each None when there is none), and the next
        decoder state.

        nu is the sigma-scaled noise, which an open-loop policy returns as
        its input; open-loop policies never read y, which may then be None.
        """
        if self.decoders is None:
            return nu, None, None, state
        value, clipped, state = self.decoders.step(state, t, y)
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"policy decoder produced non-finite output at t={t}")
        return rowmap(value, self.gain) + nu, value, clipped, state


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class TrajectoryBatch:
    """The n trajectories of one rollout.

    Indexing: states/observations cover t = 0..H; inputs and injected noises
    cover t = 0..H (the final input is executed but not propagated, matching
    the cost convention c_t = x_t'Q x_t + u_t'R u_t for t = 1..H); process
    noises cover t = 0..H-1 (w_t drives x_{t+1}).
    """

    states: np.ndarray       # (n, H+1, d_x)
    observations: np.ndarray  # (n, H+1, d_y)
    inputs: np.ndarray       # (n, H+1, d_u)
    injected: np.ndarray     # (n, H+1, d_u)
    noises: np.ndarray       # (n, H, d_x)
    costs: np.ndarray        # (n, H+1); column 0 is c_0, reported costs are 1..H

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1


def rollout(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
            horizon: int, n_traj: int, base_seed: int) -> TrajectoryBatch:
    """Simulate n_traj independent trajectories of the given horizon.

    Fully deterministic in (spec, emission, policy, horizon, base_seed):
    trajectory i is the i-th row of draws of each (role, time) substream,
    whatever n_traj (for n_traj >= 2; see _drive). This is rollout_columns
    recording every time of every column.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    every = tuple(range(horizon + 1))
    cols = rollout_columns(spec, emission, policy, horizon, n_traj, base_seed, states=every,
                           obs=every, inputs=every, injected=every, noises=every[:-1],
                           costs=every)

    def stacked(key):  # frees each field's columns once they are stacked
        by_time = cols.pop(key)
        return np.stack([by_time[t] for t in sorted(by_time)], axis=1)

    return TrajectoryBatch(states=stacked("states"), observations=stacked("obs"),
                           inputs=stacked("inputs"), injected=stacked("injected"),
                           noises=stacked("noises"), costs=stacked("costs"))


# The columns a rollout records, each requested and returned under its name.
COLUMNS = ("states", "obs", "inputs", "injected", "noises", "costs", "decoded", "clipped")


def rollout_columns(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                    horizon: int, n_traj: int, base_seed: int, *, start: int = 0,
                    **times: tuple[int, ...]) -> dict:
    """A rollout that keeps only the requested columns.

    Each keyword, a name in COLUMNS, gives the times its column is recorded
    at, e.g. obs=(2, 5). Returns every name in COLUMNS, each a dict from time to an
    (n_traj, ...) column: x_t, y_t, u_t, the sigma-scaled noise nu_t, the
    process noise w_t that drives x_{t+1}, c_t, the value the policy's
    decoder produced at t, and the boolean mask of rows whose decoder value
    was clipped at t (kept only where the decoder checks the radius). Row i
    of every column is the same whatever n_traj (for n_traj >= 2; see
    _drive), and _drive decides what is emitted, costed and acted on. An
    unknown name or a column no rollout can produce (past the horizon, a
    noise at it, no rows) raises ValidationError before any draw.

    start > 0 simulates only t = start..horizon, for an open-loop policy:
    x_start is drawn from its exact marginal N(0, Sigma_start)
    (open_loop_state_cov with sigma-scaled inputs), so every column from
    start on has the law of a rollout from t = 0, and the input and process
    draws at t >= start are bitwise those of that rollout.
    """
    unknown = sorted(set(times) - set(COLUMNS))
    if unknown:
        raise ValidationError(f"unknown columns {unknown}; a rollout records {COLUMNS}")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    if times.get("decoded") and policy.decoders is None:
        raise ValidationError("decoded columns need a policy with decoders")
    if not 0 <= start <= horizon:
        raise ValidationError(f"start must lie in [0, horizon={horizon}], got {start}")
    if start > 0 and policy.decoders is not None:
        raise ValidationError("start > 0 needs an open-loop policy")
    times = {key: set(times.get(key, ())) for key in COLUMNS}
    for key, ts in times.items():
        last = horizon - 1 if key == "noises" else horizon
        if any(t < start for t in ts):
            raise ValidationError(f"a requested column lies before start={start}")
        if any(t > last for t in ts):
            raise ValidationError(f"{key} columns run only through t={last}")
    columns = {key: {} for key in COLUMNS}

    def keep(_, key, rows, t, part):
        column = columns[key].get(t)
        if column is None:
            column = columns[key][t] = np.empty((n_traj,) + part.shape[1:], part.dtype)
        column[rows] = part

    _drive(spec, emission, (policy,), horizon, n_traj, base_seed, times, keep, start)
    return columns


# Rows a rollout simulates together; the noise blocks and per-step arrays in
# flight are O(CHUNK_ROWS), whatever the number of trajectories.
CHUNK_ROWS = 65_536
# Noise blocks the draw thread fills ahead of the block this thread reads.
DRAW_AHEAD = 2


def _row_chunks(n: int) -> list[tuple[int, int]]:
    """[lo, hi) row ranges of CHUNK_ROWS rows in order; a one-row remainder joins
    the range before it, because a one-row matrix product takes BLAS's vector
    path, whose rounding differs from the batched one."""
    starts = list(range(0, n, CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _drive(spec, emission, policies, horizon, n, seed, times, keep, start) -> None:
    """Advance n trajectories of each of the given policies through
    t = start..horizon, handing each chunk's part of every column that
    times requests to keep(k, key, rows, t, part), where k indexes policies.

    Rows run in chunks (_row_chunks), each chunk through every t before the
    next one starts. Each (role, time) substream is one Generator, read in
    chunk order, so row i is the i-th draw of its substream whatever n or
    the chunk size, and every matrix product has at least two rows (n = 1
    is the exception: its one row takes BLAS's vector path).

    The policies share every draw: each block is drawn once per chunk, and
    every policy advances its own state on it, so each policy's columns are
    bitwise those of a pass of its own. The input substreams are created
    when some policy has sigma > 0; each such policy scales the shared block
    by its own sigma, and a policy with sigma = 0 acts on zero noise.

    The draws run on a one-thread executor, DRAW_AHEAD blocks ahead of this
    thread, each into a fresh array allocated on this thread (allocating on
    the draw thread raised peak RSS). A failed draw re-raises here, and
    leaving the executor joins its thread, so no draw runs past the rollout,
    whichever side raised.

    times maps a name in COLUMNS to the times that column is recorded at; a
    missing name records nothing. keep sees only the (key, t) pairs in times,
    and never a part the policy lacks (an open-loop policy's decoded value, a
    clip mask where the decoder does not check). The action at t = horizon is
    taken only when a column at the horizon records it (costs, inputs,
    injected, decoded or clipped), so otherwise its input substream is never
    created. Observations are emitted wherever a policy with decoders runs or
    times["obs"] holds t, costs only where times["costs"] does; neither feeds
    the dynamics. The state at start comes from the
    (ROLE_INIT_STATE, start) substream, scaled by the square root of Sigma_0
    at start = 0 and of the policy's open-loop marginal Sigma_start otherwise.
    """
    l_w = psd_sqrt(spec.sigma_w)
    l_0 = [psd_sqrt(spec.sigma_0 if start == 0 else open_loop_state_cov(
        spec.a, policy.sigma * spec.b, spec.sigma_w, spec.sigma_0, start))
        for policy in policies]
    obs_times, cost_times = times.get("obs", ()), times.get("costs", ())
    at_horizon = any(horizon in times.get(key, ())
                     for key in ("costs", "inputs", "injected", "decoded", "clipped"))
    acts = range(start, horizon + 1 if at_horizon else horizon)  # the times the policies act
    chunks = _row_chunks(n)
    init = rngmod.substream(seed, rngmod.ROLE_INIT_STATE, start)
    process = {t: rngmod.substream(seed, rngmod.ROLE_PROCESS, t) for t in range(start, horizon)}
    inputs = ({t: rngmod.substream(seed, rngmod.ROLE_INPUT, t) for t in acts}
              if any(policy.sigma > 0 for policy in policies) else None)
    plan = []
    for lo, hi in chunks:
        plan.append((init, hi - lo, spec.d_x))
        for t in acts:
            if inputs:
                plan.append((inputs[t], hi - lo, spec.d_u))
            if t < horizon:
                plan.append((process[t], hi - lo, spec.d_x))
    queued = iter(plan)
    pending = collections.deque()
    pool = ThreadPoolExecutor(1, thread_name_prefix="latentlqr-draws")

    def take() -> np.ndarray:
        for gen, rows, dim in itertools.islice(queued, DRAW_AHEAD + 1 - len(pending)):
            pending.append(pool.submit(gen.standard_normal, out=np.empty((rows, dim))))
        return pending.popleft().result()

    def record(k, key, rows, t, part):
        if part is not None and t in times.get(key, ()):
            keep(k, key, rows, t, part)

    def observe(k, rows, t, x):
        record(k, "states", rows, t, x)
        if policies[k].decoders is not None or t in obs_times:
            y = emission.emit_batch(x)
            record(k, "obs", rows, t, y)
            return y
        return None

    with pool:
        for lo, hi in chunks:
            rows = slice(lo, hi)
            drawn = take()
            xs = [rowmap(drawn, l) for l in l_0]
            ys = [observe(k, rows, start, x) for k, x in enumerate(xs)]
            states = [policy.begin(hi - lo) for policy in policies]
            for t in acts:
                drawn = take() if inputs else None
                nus = [policy.sigma * drawn if policy.sigma > 0 else np.zeros((hi - lo, spec.d_u))
                       for policy in policies]
                w = rowmap(take(), l_w) if t < horizon else None
                for k, policy in enumerate(policies):
                    u, value, clipped, states[k] = policy.act(states[k], t, ys[k], nus[k])
                    if t in cost_times:
                        keep(k, "costs", rows, t, quad_rows(xs[k], spec.q) + quad_rows(u, spec.r))
                    for key, part in (("inputs", u), ("injected", nus[k]), ("decoded", value),
                                      ("clipped", clipped), ("noises", w)):
                        record(k, key, rows, t, part)
                    if w is not None:
                        xs[k] = rowmap(xs[k], spec.a) + rowmap(u, spec.b) + w
                        ys[k] = observe(k, rows, t + 1, xs[k])
