"""Monte-Carlo policy evaluation and decoder-recovery metrics.

Costs are averaged per step over fresh rollouts; policies compared on one
seed step together on shared draws (paired seeds) for variance reduction.
Decoder quality is measured up to the similarity transform that the
identification pipeline can at best recover.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import system
from .control import cross, row_sq_norms, rowmap
from .errors import ValidationError
from .phase1 import Phase1Output, bayes_map
from .system import EmissionModel, PolicyDef, SystemSpec, rollout_columns


def trajectory_costs(spec: SystemSpec, emission: EmissionModel, policies,
                     t_horizon: int, n_eval: int, seed: int):
    """For each of a sequence of policies, a (costs, clipped, checked) triple:
    the per-step cost (1/T) sum_{t=1..T} c_t of each of n_eval fresh
    rollouts, and the number of decoder steps the pass clipped and checked.

    The policies step together in one pass that draws each noise block once
    for all, so cost differences are paired-seed gaps and each triple is
    bitwise that of a pass of its own. A chunk keeps a running sum of c_1..c_T
    per policy (bitwise numpy's row mean for T <= 7, a few ulp off beyond), so
    no (n_eval, T) matrix is held.
    """
    if n_eval < 2 or t_horizon < 1:
        raise ValidationError(f"need n_eval >= 2 and t_horizon >= 1, got {n_eval}, {t_horizon}")
    times = set(range(1, t_horizon + 1))
    costs = [np.empty(n_eval) for _ in policies]
    sums = [None] * len(policies)
    clips = [[0, 0] for _ in policies]

    def keep(k, key, rows, t, part):
        if key == "costs":
            if t == 1:
                sums[k] = part.copy()
            else:
                sums[k] += part
            if t == t_horizon:
                costs[k][rows] = sums[k] / t_horizon
        else:  # "clipped"
            clips[k][0] += int(part.sum())
            clips[k][1] += part.size

    # looked up at call time, so that a wrapper of system._drive sees this pass
    system._drive(spec, emission, policies, t_horizon, n_eval, seed,
                  {"costs": times, "clipped": times}, keep, 0)
    return [(c, clipped, checked) for c, (clipped, checked) in zip(costs, clips)]


def mean_stderr(per: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-trajectory values and its standard error."""
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(per.shape[0]))


def estimate_cost(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                  t_horizon: int, n_eval: int, seed: int) -> tuple[float, float]:
    """Mean per-step cost (1/T) sum_{t=1..T} c_t and its standard error."""
    [(costs, _, _)] = trajectory_costs(spec, emission, (policy,), t_horizon, n_eval, seed)
    return mean_stderr(costs)


def estimate_gap(spec: SystemSpec, emission: EmissionModel, policy_a: PolicyDef,
                 policy_b: PolicyDef, t_horizon: int, n_eval: int, seed: int
                 ) -> tuple[float, float]:
    """Paired-seed estimate of J(policy_a) - J(policy_b).

    Both policies step together on the same draws of the initial states,
    process noise and exploration noise, so comparing a policy against
    itself gives a gap of exactly zero.
    """
    (costs_a, _, _), (costs_b, _, _) = trajectory_costs(
        spec, emission, (policy_a, policy_b), t_horizon, n_eval, seed)
    return mean_stderr(costs_a - costs_b)


@dataclass(frozen=True)
class AlignmentResult:
    """Best linear map S matching a learned decoder to the true one."""

    s: np.ndarray
    residual: float   # mean squared error at the optimum


def align_decoder(f_hat, f_star, observations: np.ndarray) -> AlignmentResult:
    """S = argmin sum_i ||f_hat(y_i) - S f_star(y_i)||^2 in closed form, from the
    control.cross reductions f_star'f_star and f_star'f_hat over the samples."""
    obs = np.atleast_2d(np.asarray(observations, dtype=float))
    pred = np.atleast_2d(np.asarray(f_hat(obs), dtype=float))
    truth = np.atleast_2d(np.asarray(f_star(obs), dtype=float))
    n, d = truth.shape
    if n < d:
        raise ValidationError(f"need at least {d} samples to align a {d}-dim decoder")
    gram = cross(truth, truth) / n
    if np.min(np.linalg.eigvalsh((gram + gram.T) / 2.0)) < 1e-12:
        raise ValidationError("true-decoder sample covariance is degenerate")
    s = np.linalg.solve(gram, cross(truth, pred) / n).T
    residual = float(np.mean(row_sq_norms(pred - rowmap(truth, s))))
    return AlignmentResult(s=s, residual=residual)


def similarity_from_ground_truth(phase1_out: Phase1Output, spec: SystemSpec) -> np.ndarray:
    """Exact similarity transform induced by the coarse decoder: V_id' applied
    to the Bayes map, S = V_id' C_kappa' Sigma_{kappa_1}^{-1}, kappa = kappa_1 - kappa_0."""
    kappa = phase1_out.kappa1 - phase1_out.kappa0
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
                           n_traj=n_eval, base_seed=seed, obs=times, decoded=times)
    errors = np.zeros(t_horizon)
    for t in times:
        truth = rowmap(emission.decode_batch(cols["obs"][t]), s_id)
        errors[t - 1] = float(np.mean(row_sq_norms(cols["decoded"][t] - truth)))
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
    s_id: np.ndarray
    wall_clock_seconds: float = 0.0

    def rows(self) -> list[tuple[str, float]]:
        """The scalar metrics in declaration order; wall clock deliberately
        excluded so reports are byte-identical across reruns."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)
                if f.name not in ("decoder_errors", "s_id", "wall_clock_seconds")]
