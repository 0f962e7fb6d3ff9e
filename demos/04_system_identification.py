"""Second learning phase: dynamics, noise covariance, and cost recovery.

All quantities are identifiable only up to the similarity transform
induced by the coarse decoder, so errors are measured in that basis using
the exact transform computed from ground truth.
"""
import numpy as np

from latentlqr import (Phase1Config, collect_id_data, fit_coarse_decoder,
                       make_benchmark_instance, parameter_bounds, run_sysid,
                       similarity_from_ground_truth)

spec, emission, decoders = make_benchmark_instance("di-cubic-lift")
bounds = parameter_bounds(spec)

print("estimation error in the identified basis vs sample size")
print(f"{'n_id':>8s} {'A':>8s} {'B':>8s} {'Sigma_w':>8s} {'Q':>8s}")
for n_id in (2_000, 8_000, 32_000):
    config = Phase1Config(n_id=n_id, kappa=bounds.kappa, psi_star=bounds.psi_star,
                          alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                          d_x=spec.d_x, d_u=spec.d_u, kappa0_override=20)
    batch1, batch2, batch3 = collect_id_data(spec, emission, config, seed=5)
    phase1 = fit_coarse_decoder(batch1, batch2, decoders, config)
    estimates = run_sysid(batch3, phase1.decode, spec.r)

    s_id = similarity_from_ground_truth(phase1, spec)
    s_inv = np.linalg.inv(s_id)
    errors = (
        np.linalg.norm(estimates.a_hat - s_id @ spec.a @ s_inv, 2),
        np.linalg.norm(estimates.b_hat - s_id @ spec.b, 2),
        np.linalg.norm(estimates.sigma_w_hat - s_id @ spec.sigma_w @ s_id.T, 2),
        np.linalg.norm(estimates.q_hat - s_inv.T @ spec.q @ s_inv, 2),
    )
    print(f"{n_id:8d} " + " ".join(f"{e:8.4f}" for e in errors))

print()
print("the recovered cost matrix is symmetric PSD by construction:")
print(np.round(estimates.q_hat, 4))
print("eigenvalues:", np.linalg.eigvalsh(estimates.q_hat).round(4))
