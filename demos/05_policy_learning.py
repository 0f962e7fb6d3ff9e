"""Third learning phase: certainty equivalence plus iterative decoding.

The gain comes from the Riccati solution on estimated dynamics. Decoders
are learned one step at a time by rolling in with the policy and out with
pure Gaussian noise; predicting the injected noise from observations turns
into a state-increment estimator through the shaping matrices, so decoder
errors do not compound along the horizon.
"""
import numpy as np

from latentlqr import (Phase3Config, SysIdEstimates, build_noise_shaping,
                       compute_policy, make_benchmark_instance, optimal_policy,
                       estimate_gap, rollout)

spec, emission, decoders = make_benchmark_instance("scalar-identity")
# exact plug-ins isolate the phase from identification error
estimates = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                           q_hat=spec.q)

print("noise shaping at exploration level sigma = 1:")
shaping = build_noise_shaping(spec.a, spec.b, spec.sigma_w, sigma=1.0, kappa=1)
print(f"  M_1 = {shaping.m_k[0][0,0]:.4f}  "
      f"limiting lambda = {shaping.lambda_m:.4f} (must be > 0)")

config = Phase3Config(n_op=5_000, sigma=0.15, t_horizon=8, kappa=1, r_op=8.0)
print()
print(f"learning decoders for T = {config.t_horizon} steps "
      f"(budget: {2 * config.n_op * config.t_horizon + 2 * config.n_init} trajectories) ...")
learned = compute_policy(spec, emission, estimates, decoders, config, seed=21)
clipped = sum(c for c, _ in learned.learning_clip_counts.values())
checked = sum(n for _, n in learned.learning_clip_counts.values())
print(f"decoder stack depth {learned.stack.depth} (f_0..f_T), "
      f"clip radius {learned.stack.b_bar:.1f}, "
      f"clips during learning: {clipped} of {checked} decoder steps")

print()
print("per-time decoder error on fresh on-policy rollouts (no compounding):")
batch = rollout(spec, emission, learned.policy(), horizon=config.t_horizon,
                n_traj=20_000, base_seed=22)
values = learned.stack.values_all(batch.observations, config.t_horizon)
for t in range(1, config.t_horizon + 1):
    truth = emission.decode_batch(batch.observations[:, t])
    err = np.mean(np.sum((values[:, t] - truth) ** 2, axis=1))
    print(f"  t = {t:2d}   E|f_t - f_star|^2 = {err:.5f}")

gap, se = estimate_gap(spec, emission, learned.policy(),
                       optimal_policy(spec, emission),
                       t_horizon=config.t_horizon, n_eval=20_000, seed=23)
print()
print(f"paired-seed suboptimality vs the ground-truth benchmark: "
      f"{gap:.4f} +- {se:.4f} per step")
