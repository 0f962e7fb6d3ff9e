"""Simulate latent linear systems observed through nonlinear emissions.

Walks through the benchmark catalog, rolls out a few policies, and shows
the reproducibility guarantees of the seeded simulator.
"""
import numpy as np

from latentlqr import PolicyDef, make_benchmark_instance, optimal_policy, rollout
from latentlqr.serialize import export_trajectories_csv

print("=" * 64)
print("Benchmark catalog")
print("=" * 64)
for name in ("scalar-identity", "di-cubic-lift", "stable2x1-lift5"):
    spec, emission, decoders = make_benchmark_instance(name)
    print(f"{name:18s}  d_x={spec.d_x}  d_u={spec.d_u}  d_y={emission.d_y}  "
          f"|F|={len(decoders)}")

spec, emission, decoders = make_benchmark_instance("di-cubic-lift")

print()
print("The emission is exactly decodable: decode(emit(x)) == x")
rng = np.random.default_rng(0)
x = rng.standard_normal((5, 2))
err = np.max(np.linalg.norm(emission.decode_batch(emission.emit_batch(x)) - x, axis=1))
print(f"max reconstruction error over 5 samples: {err:.2e}")

print()
print("Rolling out 3 policies for 10 steps, 1000 trajectories each")
policies = {
    "zero": PolicyDef(),
    "gaussian": PolicyDef(sigma=1.0),
    "optimal": optimal_policy(spec, emission),
}
for label, policy in policies.items():
    batch = rollout(spec, emission, policy, horizon=10, n_traj=1000, base_seed=7)
    per_step = batch.costs[:, 1:].mean()
    print(f"  {label:9s} mean per-step cost = {per_step:.4f}")

print()
print("Determinism: same seed => bitwise-identical trajectories,")
print("and trajectory i does not depend on how many others run alongside it")
b_small = rollout(spec, emission, policies["gaussian"], horizon=10, n_traj=3, base_seed=42)
b_large = rollout(spec, emission, policies["gaussian"], horizon=10, n_traj=500, base_seed=42)
print("  first trajectory identical in both batches:",
      np.array_equal(b_small.states[0], b_large.states[0]))

export_trajectories_csv("demo_trajectories.csv", b_small)
print()
print("wrote demo_trajectories.csv (columns: traj, t, x_*, y_*, u_*, c)")
