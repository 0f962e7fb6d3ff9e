"""First learning phase: recover the decoder up to a linear map.

Random Gaussian inputs excite the system; predicting the recent input
window from the final observation is a well-specified regression whose
population solution is a fixed linear map of the true decoder. PCA of the
regressor outputs then reduces to the latent dimension.
"""
import numpy as np

from latentlqr import (Phase1Config, align_decoder, burn_in_kappa0, collect_id_data,
                       fit_coarse_decoder, make_benchmark_instance, parameter_bounds,
                       similarity_from_ground_truth)

spec, emission, decoders = make_benchmark_instance("di-cubic-lift")
bounds = parameter_bounds(spec)
print(f"instance: d_x=2 d_y=5, |F| = {len(decoders)} candidate decoders")
print(f"parameter bounds: psi={bounds.psi_star:.2f} alpha={bounds.alpha_star:.2f} "
      f"gamma={bounds.gamma_star:.3f} kappa={bounds.kappa}")

config = Phase1Config(n_id=30_000, kappa=bounds.kappa, psi_star=bounds.psi_star,
                      alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                      d_x=spec.d_x, d_u=spec.d_u)
print(f"burn-in from the mixing formula: kappa_0 = {burn_in_kappa0(config)}")

print()
print("collecting 3 x 30000 excitation trajectories ...")
batch1, batch2, batch3 = collect_id_data(spec, emission, config, seed=11)
print(f"recorded window v has dimension {batch1.v.shape[1]} = kappa * d_u")

out = fit_coarse_decoder(batch1, batch2, decoders, config)
print()
print("empirical losses per candidate decoder:")
for name, loss in zip(decoders.names, out.h_id.all_losses):
    marker = "  <-- selected" if name == decoders.names[out.h_id.candidate_index] else ""
    print(f"  {name:14s} {loss:.6f}{marker}")

alignment = align_decoder(out.decode, emission.decode_batch, batch3.y_now[:5000])
s_id = similarity_from_ground_truth(out, spec)
print()
print(f"best linear alignment to the true decoder: residual {alignment.residual:.2e}")
print("fitted alignment map S vs the exact similarity from ground truth:")
print(np.round(alignment.s, 4))
print(np.round(s_id, 4))
print(f"difference {np.linalg.norm(alignment.s - s_id, 'fro'):.2e} "
      "(shrinks as n_id grows)")
