"""Third learning phase: certainty-equivalent gain and on-policy decoders.

The gain comes from the Riccati solution on the identified system. Decoders
are then learned one time step at a time: roll in with the policy through
step t, roll out with pure Gaussian inputs, and solve a two-step regression
whose Gaussian-conditional structure turns input prediction into state
increment estimation. A separate subroutine handles the initial state.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng as rngmod
from .control import DareSolution, psd_project, row_sq_norms, rowmap, solve_dare
from .errors import IllConditionedCovarianceError, NumericalError, ValidationError, tagged
from .regression import DecoderClass, FittedRegressor, StructuredClass, erm_fit, erm_fit_increment
from .system import EmissionModel, PolicyDef, SystemSpec, rollout_columns
from .phase2 import SysIdEstimates

COV_GUARD = 1e-8
Q_REG_EPS = 1e-9
LAMBDA_WARN = 1e-8


@dataclass(frozen=True)
class Phase3Config:
    """Sample sizes (n_init defaults to n_op), exploration level, clip radius, horizon."""

    n_op: int
    sigma: float
    t_horizon: int
    kappa: int
    r_op: float
    n_init: Optional[int] = None
    b_bar: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ValidationError("sigma must lie in (0, 1]; exploration is required")
        if self.t_horizon < 1:
            raise ValidationError("horizon T must be >= 1")
        if self.n_op < 1 or (self.n_init is not None and self.n_init < 1):
            raise ValidationError("sample sizes must be positive")
        if self.kappa < 1:
            raise ValidationError("kappa must be >= 1")
        if self.r_op <= 0:
            raise ValidationError("r_op must be > 0")
        if self.b_bar is not None and self.b_bar <= 0:
            raise ValidationError("b_bar must be > 0")
        if self.n_init is None:
            object.__setattr__(self, "n_init", self.n_op)


def default_clip_radius(d_x: int, d_u: int, n_op: int) -> float:
    """Default norm bound for decoder outputs: 10 (d_x + d_u) ln(max(n_op, 3))."""
    return 10.0 * (d_x + d_u) * math.log(max(n_op, 3))


def sigma_from_epsilon(epsilon: float, b_bar: float) -> float:
    """Exploration level from a target suboptimality: sigma = min(1, eps / b_bar)."""
    if epsilon <= 0 or b_bar <= 0:
        raise ValidationError("epsilon and b_bar must be > 0")
    return min(1.0, epsilon / b_bar)


@dataclass
class NoiseShaping:
    """Conditional-expectation prefactors M_k and their stacked aggregate.

    a_powers = (A^0, ..., A^kappa), which the two-step regression reads too;
    m_k[k-1] = C_k' (C_k C_k' + sigma^-2 W_k)^{-1} with
    W_k = sum_{i=1}^{k} A^{i-1} Sigma_w (A^{i-1})'; big_m stacks the blocks
    [M_1; M_2 A; ...; M_kappa A^{kappa-1}]. m_bar holds the sigma -> 0 limit
    of big_m / sigma^2, whose smallest singular value lambda_m must be
    positive for increment recovery to be well posed.
    """

    a_powers: tuple[np.ndarray, ...]
    m_k: tuple[np.ndarray, ...]
    big_m: np.ndarray
    m_bar: np.ndarray
    lambda_m: float


def build_noise_shaping(a: np.ndarray, b: np.ndarray, sigma_w: np.ndarray,
                        sigma: float, kappa: int) -> NoiseShaping:
    """Shaping matrices from (possibly estimated) system matrices; a shaping
    inverse that is singular in floating point raises NumericalError."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sigma_w = np.atleast_2d(np.asarray(sigma_w, dtype=float))
    if sigma <= 0:
        raise ValidationError("sigma must be > 0")
    if np.min(np.linalg.eigvalsh((sigma_w + sigma_w.T) / 2.0)) <= 0:
        raise NumericalError("process noise covariance must be positive definite "
                             "for the shaping inverses")
    powers = tuple(np.linalg.matrix_power(a, k) for k in range(kappa + 1))
    m_list = []
    bar_blocks = []
    w_k = np.zeros_like(sigma_w)
    for k in range(1, kappa + 1):
        w_k = w_k + powers[k - 1] @ sigma_w @ powers[k - 1].T
        c_k = np.hstack([powers[k - 1 - j] @ b for j in range(k)])
        try:
            m_k = np.linalg.solve(c_k @ c_k.T + w_k / sigma**2, c_k).T
            m_bar_k = np.linalg.solve(w_k, c_k).T
        except np.linalg.LinAlgError:
            raise NumericalError(f"shaping inverse at k = {k} is singular") from None
        m_list.append(m_k)
        bar_blocks.append(m_bar_k @ powers[k - 1])
    big_m = np.vstack([m_k @ a_km1 for m_k, a_km1 in zip(m_list, powers)])
    m_bar = np.vstack(bar_blocks)
    svals = np.linalg.svd(m_bar, compute_uv=False)
    lambda_m = float(svals[-1]) if svals.size else 0.0
    if lambda_m < LAMBDA_WARN:
        logging.getLogger(__name__).warning(
            "limiting shaping matrix nearly singular (lambda = %.3e); "
            "increment recovery may be ill posed", lambda_m)
    return NoiseShaping(a_powers=powers, m_k=tuple(m_list), big_m=big_m, m_bar=m_bar,
                        lambda_m=lambda_m)


def _features(h: FittedRegressor, y: np.ndarray, memo: Optional[tuple]) -> tuple:
    """A memo of h's candidate features of y: the given one if it holds them."""
    if memo is not None and memo[0] is h.decoder_class and memo[1] == h.candidate_index:
        return memo
    return h.decoder_class, h.candidate_index, h.decoder_class.features(h.candidate_index, y)


@dataclass
class InitialStatePieces:
    """Regressors and covariance for predicting A x_0 from the first observation."""

    h_ol1: FittedRegressor
    sigma_cov: np.ndarray
    h_ol0: FittedRegressor
    gain: np.ndarray  # sigma_w_hat @ sigma_cov^{-1}

    def f_a0(self, y0: np.ndarray, memo: Optional[tuple] = None) -> np.ndarray:
        """The predicted A x_0, reusing a memo of y_0's features if it fits h_ol0."""
        return rowmap(rowmap(_features(self.h_ol0, y0, memo)[2], self.h_ol0.m), self.gain)


@dataclass
class _StackState:
    value: np.ndarray
    prev_obs: Optional[np.ndarray]
    memo: Optional[tuple] = None  # (decoder class, candidate index, features of prev_obs)


@dataclass
class DecoderStack:
    """Per-time decoders built from the residual regressors.

    f_0 = 0; f_1 uses the initial-state pieces; for t >= 1,
    f_{t+1}(y_{0:t+1}) = clip( h_t(y_{t+1}) - A h_t(y_t) + A f_t(y_{0:t}) ),
    where clip zeroes any value with norm above b_bar. Values beyond the
    learned depth are zero, which makes the same object drive both the
    roll-in/roll-out collection policy and the final learned policy.

    Stepping is pure: step returns the value, the mask of rows it clipped
    (None where no radius check runs) and the next state, and leaves the
    stack as it was, so concurrent rollouts may share one stack. The state
    carries y_t's features, which h_t reuses if it shares h_{t-1}'s candidate.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray
    k_gain: np.ndarray
    b_bar: float
    residual_regressors: list = field(default_factory=list)
    first_stage: dict = field(default_factory=dict)
    initial: Optional[InitialStatePieces] = None

    @property
    def d_x(self) -> int:
        return self.a_hat.shape[0]

    @property
    def depth(self) -> int:
        """Number of defined decoders f_0..f_depth-1."""
        return len(self.residual_regressors) + 1

    def begin(self, n: int) -> _StackState:
        return _StackState(value=np.zeros((n, self.d_x)), prev_obs=None)

    def step(self, state: _StackState, t: int, y: np.ndarray):
        """One step (see above): a value whose norm exceeds b_bar, an infinite one
        included, is clipped to zero; a nan norm raises NumericalError naming t."""
        n = y.shape[0]
        if t == 0 or t > len(self.residual_regressors):
            value, clipped, now = np.zeros((n, self.d_x)), None, None
        else:
            h = self.residual_regressors[t - 1]
            prev, now = _features(h, state.prev_obs, state.memo), _features(h, y, None)
            base = rowmap(now[2], h.m) - rowmap(rowmap(prev[2], h.m), self.a_hat)
            if t == 1 and self.initial is not None:
                carry = self.initial.f_a0(state.prev_obs, prev)
            else:
                carry = rowmap(state.value, self.a_hat)
            value = base + carry
            norms = np.sqrt(row_sq_norms(value))
            if np.isnan(norms).any():
                raise NumericalError(f"decoder value at t={t} is not a number")
            clipped = norms > self.b_bar
            value[clipped] = 0.0
        return value, clipped, _StackState(value=value, prev_obs=y, memo=now)

    def values_all(self, observations: np.ndarray, t_max: int) -> np.ndarray:
        out = np.zeros((observations.shape[0], t_max + 1, self.d_x))
        state = self.begin(observations.shape[0])
        for tau in range(t_max + 1):
            out[:, tau], _, state = self.step(state, tau, observations[:, tau])
        return out


def decoder_update(h_t: FittedRegressor, stack: DecoderStack) -> None:
    """Append the residual regressor defining the next decoder in the stack."""
    if not np.all(np.isfinite(h_t.m)):
        raise ValidationError("residual regressor is not finite")
    stack.residual_regressors.append(h_t)


@dataclass
class OnPolicyHalf:
    """What the two-step regression at iteration t reads from one half of
    an on-policy collection.

    observations[:, k] is y_{t+k} for k = 0..kappa, injected[:, k] is the
    sigma-scaled input noise nu_{t+k} for k = 0..kappa-1, and f_t is the
    decoder value the roll-in policy acted on at time t.
    """

    observations: np.ndarray  # (n, kappa+1, d_y)
    injected: np.ndarray      # (n, kappa, d_u)
    f_t: np.ndarray           # (n, d_x)

    @property
    def n_traj(self) -> int:
        return self.f_t.shape[0]


def collect_onpolicy(spec: SystemSpec, emission: EmissionModel, stack: DecoderStack,
                     t: int, config: Phase3Config, seed: int
                     ) -> tuple[tuple[OnPolicyHalf, OnPolicyHalf], dict]:
    """2 n_op trajectories rolling in with the policy through step t and out
    with pure Gaussian inputs, split into disjoint halves, and the roll-in's
    clip masks {tau: (2 n_op,) bool} for the steps tau that check the radius.

    Each trajectory is simulated once, and only the columns the regression
    reads are kept: y_{t..t+kappa}, nu_{t..t+kappa-1} and the roll-in value
    f_t, so memory is O(n_op kappa) whatever t is.
    """
    kappa = config.kappa
    policy = PolicyDef(sigma=config.sigma, gain=stack.k_gain, decoders=stack)
    obs_times = tuple(range(t, t + kappa + 1))
    cols = rollout_columns(spec, emission, policy, horizon=t + kappa,
                           n_traj=2 * config.n_op, base_seed=seed, obs=obs_times,
                           injected=obs_times[:-1], decoded=(t,), clipped=tuple(range(1, t + 1)))
    observations = np.stack([cols["obs"][s] for s in obs_times], axis=1)
    injected = np.stack([cols["injected"][s] for s in obs_times[:-1]], axis=1)
    f_t = cols["decoded"][t]
    n = config.n_op
    halves = tuple(OnPolicyHalf(observations=observations[sl], injected=injected[sl],
                                f_t=f_t[sl]) for sl in (slice(0, n), slice(n, 2 * n)))
    return halves, cols["clipped"]


def fit_residual_regressors(halves: tuple[OnPolicyHalf, OnPolicyHalf],
                            stack: DecoderStack, shaping: NoiseShaping,
                            config: Phase3Config, decoder_class: DecoderClass
                            ) -> tuple[list[FittedRegressor], FittedRegressor]:
    """Two-step regression at iteration t, on halves from collect_onpolicy,
    in one pass over k = 1..kappa.

    Stage k fits on half 1 to predict the injected-noise window nu_{t:t+k-1}
    from M_k (h(y_{t+k}) - A^k h(y_t) - A^{k-1} B K f_t); its prediction on
    half 2 is block k of the targets that h_t then fits on half 2 from
    big_m (h(y_{t+1}) - A h(y_t) - B K f_t). f_t is the roll-in value each
    half recorded, not a replay of the stack; A^k is shaping.a_powers[k].
    """
    half1, half2 = halves
    h_op = StructuredClass(base=decoder_class, output_dim=stack.d_x, radius=config.r_op)
    bk = stack.b_hat @ stack.k_gain
    first_stage, phi_cols = [], []
    for k in range(1, config.kappa + 1):
        m_k, a_k, a_km1 = shaping.m_k[k - 1], shaping.a_powers[k], shaping.a_powers[k - 1]
        targets = half1.injected[:, :k].reshape(half1.n_traj, -1)
        reg = erm_fit_increment(h_op, obs_now=half1.observations[:, 0],
                                obs_next=half1.observations[:, k], left=m_k, shift=a_k,
                                targets=targets, offsets=-(half1.f_t @ (m_k @ a_km1 @ bk).T))
        first_stage.append(reg)
        phi_cols.append((reg.predict(half2.observations[:, k])
                         - reg.predict(half2.observations[:, 0]) @ a_k.T
                         - half2.f_t @ (a_km1 @ bk).T) @ m_k.T)
    h_t = erm_fit_increment(h_op, obs_now=half2.observations[:, 0],
                            obs_next=half2.observations[:, 1], left=shaping.big_m,
                            shift=stack.a_hat, targets=np.hstack(phi_cols),
                            offsets=-(half2.f_t @ (shaping.big_m @ bk).T))
    return first_stage, h_t


def initial_gain(sigma_w_hat: np.ndarray, sigma_cov: np.ndarray) -> np.ndarray:
    """Sigma_w Sigma_1^{-1}, the initial-state predictor's gain, for a symmetric Sigma_1 with
    no eigenvalue below COV_GUARD (a hard guard: IllConditionedCovarianceError, no clipping)."""
    eigvals, eigvecs = np.linalg.eigh(sigma_cov)
    if np.min(eigvals) < COV_GUARD:
        raise IllConditionedCovarianceError(
            f"initial-state covariance has smallest eigenvalue {np.min(eigvals):.3e} "
            f"below the {COV_GUARD:.0e} guard; increase n_init or sigma")
    return sigma_w_hat @ ((eigvecs / eigvals) @ eigvecs.T)


def learn_initial_state(y0: np.ndarray, y1: np.ndarray, nu0: np.ndarray,
                        h_0: FittedRegressor, estimates: SysIdEstimates,
                        config: Phase3Config, decoder_class: DecoderClass
                        ) -> InitialStatePieces:
    """Initial-state subroutine on fresh open-loop data: y_0, y_1 and the
    injected noise nu_0 of 2n trajectories, fitting on the first n rows and
    then on the last n.

    h_ol1 learns the noise estimate h_0(y_1) - A h_0(y_0) - B nu_0 as a
    function of y_1; its second-moment matrix estimates
    Sigma_w Sigma_1^{-1} Sigma_w, which initial_gain inverts to back the
    predictor of A x_0 out of h_ol0.
    """
    a_hat, b_hat = estimates.a_hat, estimates.b_hat
    d_x = a_hat.shape[0]
    h_op = StructuredClass(base=decoder_class, output_dim=d_x, radius=config.r_op)
    n = y0.shape[0] // 2
    first, second = slice(0, n), slice(n, 2 * n)

    noise_est = (h_0.predict(y1[first]) - h_0.predict(y0[first]) @ a_hat.T
                 - nu0[first] @ b_hat.T)
    h_ol1 = erm_fit(h_op, y1[first], noise_est)

    vals = h_ol1.predict(y1[second])
    sigma_cov = vals.T @ vals / n
    sigma_cov = (sigma_cov + sigma_cov.T) / 2.0
    gain = initial_gain(estimates.sigma_w_hat, sigma_cov)
    h_ol0 = erm_fit(h_op, y0[second], vals)
    return InitialStatePieces(h_ol1=h_ol1, sigma_cov=sigma_cov, h_ol0=h_ol0, gain=gain)


@dataclass
class LearnedPolicy:
    """Gain, per-time decoders, exploration level, and clip radius.

    learning_clip_counts maps t to (clipped rows, checked rows), summed over
    the roll-ins of every phase-3 collection.
    """

    stack: DecoderStack
    sigma: float
    trajectories_used: int
    learning_clip_counts: dict = field(default_factory=dict)

    @property
    def b_bar(self) -> float:
        return self.stack.b_bar

    @property
    def t_horizon(self) -> int:
        return self.stack.depth - 1

    def policy(self) -> PolicyDef:
        return PolicyDef(sigma=self.sigma, gain=self.stack.k_gain, decoders=self.stack)

    def greedy_policy(self) -> PolicyDef:
        """Same decoders with no injected exploration noise."""
        return PolicyDef(gain=self.stack.k_gain, decoders=self.stack)


def certainty_equivalent_dare(estimates: SysIdEstimates, r: np.ndarray) -> DareSolution:
    """solve_dare on the identified system; .k is the learned gain. q_hat is symmetrized,
    PSD-projected and lifted by Q_REG_EPS I below that eigenvalue. solve_dare rounds by
    memory layout, so a_hat and b_hat enter in phase 2's Fortran order, as loaded copies do."""
    q_hat = psd_project((estimates.q_hat + estimates.q_hat.T) / 2.0)
    if np.min(np.linalg.eigvalsh(q_hat)) < Q_REG_EPS:
        q_hat = q_hat + Q_REG_EPS * np.eye(q_hat.shape[0])
    return solve_dare(np.asfortranarray(estimates.a_hat), np.asfortranarray(estimates.b_hat),
                      q_hat, r)


def compute_policy(spec: SystemSpec, emission: EmissionModel, estimates: SysIdEstimates,
                   decoder_class: DecoderClass, config: Phase3Config, seed: int
                   ) -> LearnedPolicy:
    """Full third phase: gain synthesis plus the iterative decoder loop.

    Fresh data are collected at every iteration t (no reuse), so the sample
    budget is 2 n_op T + 2 n_init trajectories, reported on the result.
    Each of them is simulated once: iteration t keeps O(n_op kappa) columns
    and reads f_t and its clip masks from its own roll-in, so the learning
    clip counts count every on-policy trajectory once per decoder step.
    """
    sol = certainty_equivalent_dare(estimates, spec.r)
    shaping = build_noise_shaping(estimates.a_hat, estimates.b_hat,
                                  estimates.sigma_w_hat, config.sigma, config.kappa)
    b_bar = config.b_bar if config.b_bar is not None else default_clip_radius(
        spec.d_x, spec.d_u, config.n_op)
    stack = DecoderStack(a_hat=estimates.a_hat, b_hat=estimates.b_hat, k_gain=sol.k, b_bar=b_bar)

    learning_counts = {}
    for t in range(config.t_horizon):
        with tagged(f"phase3 t={t} stage=collect"):
            halves, masks = collect_onpolicy(
                spec, emission, stack, t, config,
                rngmod.derive_seed(seed, rngmod.TAG_PHASE3_LOOP, t))
        for tau, mask in masks.items():
            clipped, checked = learning_counts.get(tau, (0, 0))
            learning_counts[tau] = (clipped + int(mask.sum()), checked + mask.size)
        with tagged(f"phase3 t={t} stage=regress"):
            first_stage, h_t = fit_residual_regressors(halves, stack, shaping, config,
                                                       decoder_class)
        stack.first_stage[t] = first_stage
        if t == 0:
            with tagged(f"phase3 t={t} stage=initial-state"):
                init = rollout_columns(spec, emission, PolicyDef(sigma=config.sigma),
                                       horizon=1, n_traj=2 * config.n_init,
                                       base_seed=rngmod.derive_seed(seed, rngmod.TAG_PHASE3_INIT),
                                       obs=(0, 1), injected=(0,))
                stack.initial = learn_initial_state(init["obs"][0], init["obs"][1],
                                                    init["injected"][0], h_t, estimates,
                                                    config, decoder_class)
        with tagged(f"phase3 t={t} stage=update"):
            decoder_update(h_t, stack)

    budget = 2 * config.n_op * config.t_horizon + 2 * config.n_init
    return LearnedPolicy(stack=stack, sigma=config.sigma, trajectories_used=budget,
                         learning_clip_counts=learning_counts)
