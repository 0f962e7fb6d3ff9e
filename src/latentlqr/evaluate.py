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
from .control import controllability_matrix, cross, open_loop_state_cov, row_sq_norms, rowmap
from .errors import ValidationError
from .phase1 import Phase1Output
from .system import EmissionModel, PolicyDef, SystemSpec


def trajectory_costs(spec: SystemSpec, emission: EmissionModel, policies,
                     t_horizon: int, n_eval: int, seed: int, n_kept: tuple = ()):
    """For each of a sequence of policies, a (costs, clipped, checked, kept)
    tuple: the per-step cost (1/T) sum_{t=1..T} c_t of each of n_eval fresh
    rollouts, the number of decoder steps the pass clipped and checked, and
    kept["states"][t] = x_t and kept["decoded"][t] = f_t (t = 1..T) of the k-th
    policy's first min(n_kept[k], n_eval) rows (none past the end of n_kept).

    The policies step together in one pass that draws each noise block once
    for all, so cost differences are paired-seed gaps and each tuple is
    bitwise that of a pass of its own. A chunk keeps a running sum of c_1..c_T
    per policy (bitwise numpy's row mean for T <= 7, a few ulp off beyond), so
    no (n_eval, T) matrix is held.
    """
    if n_eval < 2 or t_horizon < 1:
        raise ValidationError(f"need n_eval >= 2 and t_horizon >= 1, got {n_eval}, {t_horizon}")
    n_kept = [min(n_kept[k], n_eval) if k < len(n_kept) else 0 for k in range(len(policies))]
    times = set(range(1, t_horizon + 1))
    costs = [np.empty(n_eval) for _ in policies]
    sums = [None] * len(policies)
    clips = [[0, 0] for _ in policies]
    kept = [{"states": {}, "decoded": {}} for _ in policies]

    def keep(k, key, rows, t, part):
        if key == "costs":
            if t == 1:
                sums[k] = part.copy()
            else:
                sums[k] += part
            if t == t_horizon:
                costs[k][rows] = sums[k] / t_horizon
        elif key == "clipped":
            clips[k][0] += int(part.sum())
            clips[k][1] += part.size
        elif rows.start < n_kept[k]:  # a state or decoder value of the leading rows
            if t not in kept[k][key]:
                kept[k][key][t] = np.empty((n_kept[k], part.shape[1]))
            kept[k][key][t][rows] = part[:n_kept[k] - rows.start]

    # looked up at call time, so that a wrapper of system._drive sees this pass
    system._drive(spec, emission, policies, t_horizon, n_eval, seed,
                  dict.fromkeys(("costs", "clipped", "states", "decoded"), times), keep, 0)
    return [(c, *clip, kept_k) for c, clip, kept_k in zip(costs, clips, kept)]


def mean_stderr(per: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-trajectory values and its standard error."""
    return float(per.mean()), float(per.std(ddof=1) / np.sqrt(per.shape[0]))


def estimate_cost(spec: SystemSpec, emission: EmissionModel, policy: PolicyDef,
                  t_horizon: int, n_eval: int, seed: int) -> tuple[float, float]:
    """Mean per-step cost (1/T) sum_{t=1..T} c_t and its standard error."""
    [(costs, *_)] = trajectory_costs(spec, emission, (policy,), t_horizon, n_eval, seed)
    return mean_stderr(costs)


def estimate_gap(spec: SystemSpec, emission: EmissionModel, policy_a: PolicyDef,
                 policy_b: PolicyDef, t_horizon: int, n_eval: int, seed: int
                 ) -> tuple[float, float]:
    """Paired-seed estimate of J(policy_a) - J(policy_b).

    Both policies step together on the same draws of the initial states,
    process noise and exploration noise, so comparing a policy against
    itself gives a gap of exactly zero.
    """
    (costs_a, *_), (costs_b, *_) = trajectory_costs(
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


def bayes_map(spec: SystemSpec, kappa: int, kappa1: int) -> np.ndarray:
    """Population regression target: C_kappa' Sigma_{kappa_1}^{-1}.

    The stacked input window and the state at kappa_1 are jointly Gaussian,
    so the conditional expectation of the window given the state is this
    linear map applied to the state.
    """
    c_k = controllability_matrix(spec.a, spec.b, kappa)
    sigma = open_loop_state_cov(spec.a, spec.b, spec.sigma_w, spec.sigma_0, kappa1)
    return np.linalg.solve(sigma, c_k).T


def similarity_from_ground_truth(phase1_out: Phase1Output, spec: SystemSpec) -> np.ndarray:
    """Exact similarity transform induced by the coarse decoder: V_id' applied
    to the Bayes map, S = V_id' C_kappa' Sigma_{kappa_1}^{-1}, kappa = kappa_1 - kappa_0."""
    kappa = phase1_out.kappa1 - phase1_out.kappa0
    return phase1_out.v_id.T @ bayes_map(spec, kappa, phase1_out.kappa1)


def decoder_errors_by_time(kept: dict, s_id: np.ndarray) -> np.ndarray:
    """Mean squared error of each per-time decoder value f_t against S_id x_t,
    one value per t = 1..T, on the rows that trajectory_costs kept of the
    learned policy's own pass. S_id x_t is S_id f_star(y_t) up to the decode
    error of at most 1e-9 that check_decodable allows.
    """
    states, decoded = kept["states"], kept["decoded"]
    return np.array([float(np.mean(row_sq_norms(decoded[t] - rowmap(states[t], s_id))))
                     for t in sorted(decoded)])


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
    # roundoff (1e-33 to 1e-29) whenever phase 1 picks the true candidate, as at desk
    # sizes on every catalog instance; there it does not measure alignment quality
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
