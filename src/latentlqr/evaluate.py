"""Monte-Carlo policy evaluation and decoder-recovery metrics.

Costs are averaged per step over fresh rollouts; two policies can be
compared on identical noise streams (paired seeds) for variance reduction.
Decoder quality is measured up to the similarity transform that the
identification pipeline can at best recover.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .phase1 import Phase1Output, bayes_map
from .system import EmissionModel, PolicyDef, SystemSpec, rollout_columns


def trajectory_costs(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                     t_horizon: int, n_eval: int, seed: int) -> tuple[np.ndarray, int, int]:
    """Per-step cost (1/T) sum_{t=1..T} c_t of each of n_eval fresh rollouts,
    with the number of decoder steps the pass clipped and checked.

    Only the cost columns and clip masks are recorded. Policies evaluated on
    the same seed see identical noise streams, so differences of these cost
    vectors are paired-seed gaps.
    """
    if n_eval < 2:
        raise ValidationError("n_eval must be >= 2")
    times = tuple(range(1, t_horizon + 1))
    cols = rollout_columns(spec, emission, policy, horizon=t_horizon, n_traj=n_eval,
                           base_seed=seed, cost_times=times, clipped_times=times)
    masks = cols["clipped"].values()
    return (np.stack([cols["costs"][t] for t in times], axis=1).mean(axis=1),
            sum(int(m.sum()) for m in masks), sum(m.size for m in masks))


def mean_stderr(per: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-trajectory values and its standard error."""
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(per.shape[0]))


def estimate_cost(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                  t_horizon: int, n_eval: int, seed: int) -> tuple[float, float]:
    """Mean per-step cost (1/T) sum_{t=1..T} c_t and its standard error."""
    return mean_stderr(trajectory_costs(spec, emission, policy, t_horizon, n_eval, seed)[0])


def estimate_gap(spec: SystemSpec, emission: EmissionModel, policy_a: PolicyDef,
                 policy_b: PolicyDef, t_horizon: int, n_eval: int, seed: int
                 ) -> tuple[float, float]:
    """Paired-seed estimate of J(policy_a) - J(policy_b).

    Both policies see identical initial states, process noise, and
    exploration noise streams, so comparing a policy against itself gives a
    gap of exactly zero.
    """
    costs_a = trajectory_costs(spec, emission, policy_a, t_horizon, n_eval, seed)[0]
    costs_b = trajectory_costs(spec, emission, policy_b, t_horizon, n_eval, seed)[0]
    return mean_stderr(costs_a - costs_b)


@dataclass(frozen=True)
class AlignmentResult:
    """Best linear map S matching a learned decoder to the true one."""

    s: np.ndarray
    residual: float   # mean squared error at the optimum


def align_decoder(f_hat, f_star, observations: np.ndarray) -> AlignmentResult:
    """S = argmin sum_i ||f_hat(y_i) - S f_star(y_i)||^2 in closed form."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    pred = np.atleast_2d(np.asarray(f_hat(obs), dtype=float))
    truth = np.atleast_2d(np.asarray(f_star(obs), dtype=float))
    n, d = truth.shape
    if n < d:
        raise ValidationError(f"need at least {d} samples to align a {d}-dim decoder")
    gram = truth.T @ truth / n
    if np.min(np.linalg.eigvalsh((gram + gram.T) / 2.0)) < 1e-12:
        raise ValidationError("true-decoder sample covariance is degenerate")
    s = np.linalg.solve(gram, truth.T @ pred / n).T
    residual = float(np.mean(np.sum((pred - truth @ s.T) ** 2, axis=1)))
    return AlignmentResult(s=s, residual=residual)


def similarity_from_ground_truth(phase1_out: Phase1Output, spec: SystemSpec,
                                 kappa: int) -> np.ndarray:
    """Exact similarity transform induced by the coarse decoder:
    S = V_id' C_kappa' Sigma_{kappa_1}^{-1}, V_id' applied to the Bayes map."""
    return phase1_out.v_id.T @ bayes_map(spec, kappa, phase1_out.kappa1)


def decoder_errors_by_time(spec: SystemSpec, emission: EmissionModel, learned,
                           s_id: np.ndarray, n_eval: int, seed: int) -> np.ndarray:
    """Mean squared error of each per-time decoder against S_id f_star.

    Evaluated on fresh rollouts under the learned (exploring) policy, each
    decoder value read from the rollout step that produced it; returns one
    value per t = 1..T.
    """
    t_horizon = learned.t_horizon
    times = tuple(range(1, t_horizon + 1))
    cols = rollout_columns(spec, emission, learned.policy(), horizon=t_horizon,
                           n_traj=n_eval, base_seed=seed, obs_times=times,
                           decoded_times=times)
    errors = np.zeros(t_horizon)
    for t in times:
        truth = emission.decode_batch(cols["obs"][t]) @ s_id.T
        errors[t - 1] = float(np.mean(np.sum((cols["decoded"][t] - truth) ** 2, axis=1)))
    return errors


@dataclass
class EvalReport:
    """Everything the reporting layer writes: costs, gap, decoder metrics."""

    j_learned: float
    j_learned_stderr: float
    j_optimal: float
    j_optimal_stderr: float
    gap: float
    gap_stderr: float
    j_zero: float
    j_zero_stderr: float
    gap_zero: float
    decoder_align_residual: float
    decoder_align_sigma_min: float
    decoder_errors: np.ndarray
    clip_fraction: float
    clip_events: int
    trajectories_phase12: int
    trajectories_phase3: int
    trajectories_eval: int
    kappa0: int
    kappa1: int
    wall_clock_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    METRIC_ORDER = (
        "j_learned", "j_learned_stderr", "j_optimal", "j_optimal_stderr",
        "gap", "gap_stderr", "j_zero", "j_zero_stderr", "gap_zero",
        "decoder_align_residual", "decoder_align_sigma_min",
        "clip_fraction", "clip_events",
        "trajectories_phase12", "trajectories_phase3", "trajectories_eval",
        "kappa0", "kappa1",
    )

    def rows(self) -> list[tuple[str, float]]:
        """Fixed metric order; wall clock deliberately excluded so reports
        are byte-identical across reruns."""
        return [(name, getattr(self, name)) for name in self.METRIC_ORDER]
