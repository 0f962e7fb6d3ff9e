"""Ground-truth latent linear system, decodable emissions, and rollouts.

The simulator is vectorized across trajectories: a rollout advances all n
trajectories in lockstep, one time step per iteration, drawing each noise
block from a named substream so results are reproducible and independent
of batch size (see rng.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .control import controllability, spectral_radius
from .errors import ValidationError


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
        if controllability(self.a, self.b, self.d_x).kappa_star is None:
            raise ValidationError("(A, B) must be controllable")


@dataclass(frozen=True)
class EmissionModel:
    """Deterministic observation map with an exact inverse decoder."""

    d_y: int
    emit: Callable[[np.ndarray], np.ndarray]
    true_decoder: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"

    def emit_batch(self, x: np.ndarray) -> np.ndarray:
        y = self.emit(np.atleast_2d(x))
        return np.asarray(y, dtype=float)

    def decode_batch(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.true_decoder(np.atleast_2d(y)), dtype=float)

    def check_decodable(self, spec: SystemSpec, n: int = 10_000, seed: int = 0,
                        tol: float = 1e-9) -> float:
        """Max reconstruction error of decode(emit(x)) over n sampled states."""
        g = rngmod.generator(seed, rngmod.TAG_INSTANCE)
        scale = np.sqrt(np.clip(np.diag(spec.sigma_w) + np.diag(spec.sigma_0), 0.1, None))
        x = g.standard_normal((n, spec.d_x)) * scale * 2.0
        err = float(np.max(np.linalg.norm(self.decode_batch(self.emit_batch(x)) - x, axis=1)))
        if err > tol:
            raise ValidationError(f"emission is not decodable: max error {err:.3g} > {tol}")
        return err


def step(spec: SystemSpec, x: np.ndarray, u: np.ndarray,
         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One transition: returns (A x + B u + w, w) with w ~ N(0, Sigma_w)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.shape[0] != spec.d_x:
        raise ValidationError(f"state has dim {x.shape[0]}, expected {spec.d_x}")
    if u.shape[0] != spec.d_u:
        raise ValidationError(f"input has dim {u.shape[0]}, expected {spec.d_u}")
    from .control import psd_sqrt

    w = psd_sqrt(spec.sigma_w) @ rng.standard_normal(spec.d_x)
    return spec.a @ x + spec.b @ u + w, w


# ---------------------------------------------------------------------------
# Decoders usable inside policies


class CurrentObsDecoder:
    """Applies a fixed map to the current observation only (e.g. the true decoder)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def begin(self, n: int):
        return None

    def step(self, state, t: int, y: np.ndarray):
        return np.asarray(self.fn(y), dtype=float), state


@dataclass(frozen=True)
class PolicyDef:
    """Control law executed by rollout.

    kind:
      open-loop-gaussian   u_t = mean + sigma * nu_t
      gain-times-decoder   u_t = K * decoder_t(y_{0:t}) + sigma * nu_t
      optimal-ground-truth u_t = K * f_star(y_t) (sigma usually 0)
    """

    kind: str
    sigma: float = 0.0
    gain: Optional[np.ndarray] = None
    decoders: object = None
    mean: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("open-loop-gaussian", "gain-times-decoder", "optimal-ground-truth"):
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if self.kind != "open-loop-gaussian" and self.gain is None:
            raise ValidationError(f"{self.kind} policy requires a gain")

    @staticmethod
    def open_loop_gaussian(sigma: float, mean: np.ndarray | None = None) -> "PolicyDef":
        return PolicyDef(kind="open-loop-gaussian", sigma=sigma,
                         mean=None if mean is None else np.asarray(mean, dtype=float))

    @staticmethod
    def zero(d_u: int) -> "PolicyDef":
        return PolicyDef(kind="open-loop-gaussian", sigma=0.0, mean=np.zeros(d_u))

    @staticmethod
    def gain_decoder(gain: np.ndarray, decoders, sigma: float) -> "PolicyDef":
        return PolicyDef(kind="gain-times-decoder", sigma=sigma,
                         gain=np.atleast_2d(np.asarray(gain, dtype=float)), decoders=decoders)

    @staticmethod
    def ground_truth(gain: np.ndarray, emission: EmissionModel, sigma: float = 0.0) -> "PolicyDef":
        return PolicyDef(kind="optimal-ground-truth", sigma=sigma,
                         gain=np.atleast_2d(np.asarray(gain, dtype=float)),
                         decoders=CurrentObsDecoder(emission.decode_batch))

    def begin(self, n: int):
        if self.decoders is not None:
            return self.decoders.begin(n)
        return None

    @property
    def reads_observations(self) -> bool:
        return self.kind != "open-loop-gaussian"

    def act(self, state, t: int, y: Optional[np.ndarray], nu: np.ndarray):
        """Inputs for all trajectories at time t, the decoder value behind them
        (None when open-loop), and the next decoder state.

        nu is the sigma-scaled noise and fixes the batch size; open-loop
        policies never read y, which may then be None.
        """
        n, d_u = nu.shape
        if self.kind == "open-loop-gaussian":
            base = np.zeros((n, d_u)) if self.mean is None else np.broadcast_to(self.mean, (n, d_u))
            return base + nu, None, state
        value, state = self.decoders.step(state, t, y)
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"policy decoder produced non-finite output at t={t}")
        return value @ self.gain.T + nu, value, state


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class TrajectoryBatch:
    """n trajectories advanced in lockstep.

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
    seed: int

    @property
    def n_traj(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    def trajectory(self, i: int) -> "Trajectory":
        return Trajectory(states=self.states[i], observations=self.observations[i],
                          inputs=self.inputs[i], injected=self.injected[i],
                          noises=self.noises[i], costs=self.costs[i], seed=self.seed, index=i)


@dataclass
class Trajectory:
    """Single-trajectory view of a batch."""

    states: np.ndarray
    observations: np.ndarray
    inputs: np.ndarray
    injected: np.ndarray
    noises: np.ndarray
    costs: np.ndarray
    seed: int
    index: int


def _quad_rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", x, m, x)


def rollout(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
            horizon: int, n_traj: int, base_seed: int) -> TrajectoryBatch:
    """Simulate n_traj independent trajectories of the given horizon.

    Fully deterministic in (spec, emission, policy, horizon, base_seed):
    trajectory i draws row i of each (role, time) noise block regardless of
    n_traj or scheduling.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    rec = _FullRecorder(spec, emission, horizon, n_traj, base_seed)
    _drive(spec, emission, policy, horizon, n_traj, base_seed, rec)
    return rec.batch


def rollout_columns(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                    horizon: int, n_traj: int, base_seed: int, *,
                    obs_times: tuple[int, ...] = (),
                    input_times: tuple[int, ...] = (),
                    injected_times: tuple[int, ...] = (),
                    cost_times: tuple[int, ...] = (),
                    decoded_times: tuple[int, ...] = ()) -> dict:
    """Memory-light rollout keeping only the requested columns.

    Returns {"obs", "inputs", "injected", "costs", "decoded"}, each a dict
    from time to an (n_traj, ...) column: y_t, u_t, the sigma-scaled noise
    nu_t, c_t, and the value the policy's decoder produced at t. Uses the
    identical stream derivation as rollout(), so kept columns are bitwise
    equal to the corresponding slices of a full rollout (and decoded columns
    to the decoder chain replayed over its observations). Costs are computed
    only at cost_times, and an open-loop policy emits observations only at
    obs_times.
    """
    if decoded_times and policy.decoders is None:
        raise ValidationError("decoded_times needs a policy with decoders")
    rec = _ColumnRecorder(obs_times, input_times, injected_times, cost_times, decoded_times)
    _drive(spec, emission, policy, horizon, n_traj, base_seed, rec)
    return rec.columns


class _FullRecorder:
    def __init__(self, spec, emission, horizon, n, seed):
        h = horizon
        self.batch = TrajectoryBatch(
            states=np.zeros((n, h + 1, spec.d_x)),
            observations=np.zeros((n, h + 1, emission.d_y)),
            inputs=np.zeros((n, h + 1, spec.d_u)),
            injected=np.zeros((n, h + 1, spec.d_u)),
            noises=np.zeros((n, h, spec.d_x)),
            costs=np.zeros((n, h + 1)),
            seed=seed,
        )

    def wants_obs(self, t):
        return True

    def wants_cost(self, t):
        return True

    def state(self, t, x, y):
        self.batch.states[:, t] = x
        self.batch.observations[:, t] = y

    def input(self, t, u, nu, cost, value):
        self.batch.inputs[:, t] = u
        self.batch.injected[:, t] = nu
        self.batch.costs[:, t] = cost

    def noise(self, t, w):
        self.batch.noises[:, t] = w


class _ColumnRecorder:
    def __init__(self, obs_times, input_times, injected_times, cost_times, decoded_times):
        self.times = {"obs": set(obs_times), "inputs": set(input_times),
                      "injected": set(injected_times), "costs": set(cost_times),
                      "decoded": set(decoded_times)}
        self.columns = {key: {} for key in self.times}

    def _keep(self, key, t, column):
        if t in self.times[key]:
            self.columns[key][t] = column.copy()

    def wants_obs(self, t):
        return t in self.times["obs"]

    def wants_cost(self, t):
        return t in self.times["costs"]

    def state(self, t, x, y):
        self._keep("obs", t, y)

    def input(self, t, u, nu, cost, value):
        self._keep("inputs", t, u)
        self._keep("injected", t, nu)
        self._keep("costs", t, cost)
        self._keep("decoded", t, value)

    def noise(self, t, w):
        pass


def _drive(spec, emission, policy, horizon, n, seed, rec) -> None:
    """Advance n trajectories through t = 0..horizon, handing every step to rec.

    Observations are emitted where the policy or the recorder reads them,
    costs only where the recorder keeps them; neither feeds the dynamics.
    """
    from .control import psd_sqrt

    l_w = psd_sqrt(spec.sigma_w)
    l_0 = psd_sqrt(spec.sigma_0)

    def observe(t, x):
        if policy.reads_observations or rec.wants_obs(t):
            return emission.emit_batch(x)
        return None

    x = rngmod.noise_block(seed, rngmod.ROLE_INIT_STATE, 0, n, spec.d_x) @ l_0.T
    y = observe(0, x)
    pol_state = policy.begin(n)
    rec.state(0, x, y)
    for t in range(horizon + 1):
        nu = policy.sigma * rngmod.noise_block(seed, rngmod.ROLE_INPUT, t, n, spec.d_u)
        u, value, pol_state = policy.act(pol_state, t, y, nu)
        cost = _quad_rows(x, spec.q) + _quad_rows(u, spec.r) if rec.wants_cost(t) else None
        rec.input(t, u, nu, cost, value)
        if t < horizon:
            w = rngmod.noise_block(seed, rngmod.ROLE_PROCESS, t, n, spec.d_x) @ l_w.T
            x = x @ spec.a.T + u @ spec.b.T + w
            y = observe(t + 1, x)
            rec.noise(t, w)
            rec.state(t + 1, x, y)
