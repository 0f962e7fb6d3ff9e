"""Acceptance suite: one test per criterion, each printing a pass line.

Statistical criteria run at fixed seeds, so every assertion is
deterministic; rate checks average a handful of replicate fits so the
measured ratio reflects the convergence rate rather than single-draw noise.
"""
import time

import numpy as np
import pytest

from latentlqr import pipeline
from latentlqr import (ExperimentConfig, Phase1Config, Phase3Config, SystemSpec,
                       SysIdEstimates, align_decoder, build_noise_shaping,
                       collect_id_data, collect_onpolicy, estimate_gap, fit_coarse_decoder,
                       fit_residual_regressors, learn_initial_state,
                       make_benchmark_instance, optimal_policy, parameter_bounds, psd_project,
                       rollout, rollout_columns, run_pipeline, run_sysid,
                       similarity_from_ground_truth,
                       solve_dare, strong_stability_cert)
from latentlqr.evaluate import bayes_map
from latentlqr.phase3 import DecoderStack
from latentlqr.system import PolicyDef

from helpers import random_spd, random_stable, truth_only


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *args):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_dare_correctness():
    with Timer() as timer:
        rng = np.random.default_rng(1001)
        worst_resid = 0.0
        worst_rho = 0.0
        for _ in range(20):
            d_x = int(rng.integers(1, 7))
            d_u = int(rng.integers(1, 4))
            a = random_stable(rng, d_x, rho=float(rng.uniform(0.3, 0.95)))
            b = rng.standard_normal((d_x, d_u))
            q = random_spd(rng, d_x)
            r = random_spd(rng, d_u)
            sol = solve_dare(a, b, q, r)
            rel = sol.residual / np.linalg.norm(sol.p, "fro")
            worst_resid = max(worst_resid, rel)
            rho = max(abs(np.linalg.eigvals(a + b @ sol.k)))
            worst_rho = max(worst_rho, rho)
            assert rel <= 1e-8
            assert rho < 1.0
        p_star = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
        k_star = -0.5 * p_star / (1.0 + p_star)
        sol = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.p[0, 0] - p_star) <= 1e-9
        assert abs(sol.k[0, 0] - k_star) <= 1e-9
    assert timer.elapsed < 2.0
    report(1, f"20 random DARE solves: max rel residual {worst_resid:.2e}, "
              f"max closed-loop radius {worst_rho:.4f}; scalar oracle matched "
              f"(p={sol.p[0,0]:.6f}); {timer.elapsed:.2f}s")


def test_criterion_2_strong_stability_soundness():
    with Timer() as timer:
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(1, 7))
            x = random_stable(rng, d, rho=float(rng.uniform(0.2, 0.95)))
            cert = strong_stability_cert(x)
            powers = np.eye(d)
            for n in range(51):
                bound = cert.alpha * cert.gamma**n * (1 + 1e-6)
                norm_n = np.linalg.norm(powers, 2)
                assert norm_n <= bound
                worst = max(worst, norm_n / bound if bound > 0 else 0.0)
                powers = powers @ x
    assert timer.elapsed < 2.0
    report(2, f"20 certificates sound for n <= 50 (tightest margin {worst:.3f}); "
              f"{timer.elapsed:.2f}s")


def test_criterion_3_gaussian_conditional_expectation_oracle():
    with Timer() as timer:
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        bounds = parameter_bounds(spec)
        config = Phase1Config(n_id=100_000, kappa=1, psi_star=bounds.psi_star,
                              alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                              d_x=2, d_u=2, kappa0_override=0)
        batch1, batch2, _ = collect_id_data(spec, emission, config, seed=31)
        out = fit_coarse_decoder(batch1, batch2, truth_only(cls), config)
        target = bayes_map(spec, kappa=1, kappa1=1)
        rel = (np.linalg.norm(out.h_id.m - target, "fro")
               / np.linalg.norm(target, "fro"))
        assert rel <= 0.05
    assert timer.elapsed < 30.0
    report(3, f"empirical Bayes map within {100 * rel:.2f}% of C' Sigma^-1 at n=1e5; "
              f"{timer.elapsed:.1f}s")


def test_criterion_4_phase1_recovery():
    with Timer() as timer:
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        assert len(cls) == 8 and cls.contains_truth is not None
        bounds = parameter_bounds(spec)
        eval_batch = rollout(spec, emission, PolicyDef(sigma=1.0),
                             horizon=21, n_traj=20_000, base_seed=999)
        eval_obs = eval_batch.observations[:, 21]
        truth_states = emission.decode_batch(eval_obs)

        def one_fit(n_id, seed):
            config = Phase1Config(n_id=n_id, kappa=bounds.kappa, psi_star=bounds.psi_star,
                                  alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                                  d_x=2, d_u=2, kappa0_override=20)
            batch1, batch2, _ = collect_id_data(spec, emission, config, seed=seed)
            out = fit_coarse_decoder(batch1, batch2, cls, config)
            s_id = similarity_from_ground_truth(out, spec)
            recovery = float(np.mean(np.sum(
                (out.decode(eval_obs) - truth_states @ s_id.T) ** 2, axis=1)))
            return out, recovery

        out_small, _ = one_fit(20_000, seed=11)
        alignment = align_decoder(out_small.decode, emission.decode_batch, eval_obs)
        assert alignment.residual <= 0.05

        seeds = (11, 23, 57, 91, 133, 177)
        err_small = np.mean([one_fit(20_000, s)[1] for s in seeds])
        err_large = np.mean([one_fit(80_000, s)[1] for s in seeds])
        rms_ratio = float(np.sqrt(err_small / err_large))
        assert 1.2 <= rms_ratio <= 3.5
    assert timer.elapsed < 120.0
    report(4, f"alignment residual {alignment.residual:.2e} <= 0.05 at n=2e4; "
              f"recovery error rms ratio (2e4 vs 8e4) = {rms_ratio:.2f} in [1.2, 3.5]; "
              f"{timer.elapsed:.1f}s")


def test_criterion_5_phase2_recovery_in_identified_basis():
    with Timer() as timer:
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        bounds = parameter_bounds(spec)
        config = Phase1Config(n_id=50_000, kappa=bounds.kappa, psi_star=bounds.psi_star,
                              alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                              d_x=2, d_u=2, kappa0_override=20)
        batch1, batch2, batch3 = collect_id_data(spec, emission, config, seed=51)
        out = fit_coarse_decoder(batch1, batch2, cls, config)
        s_id = similarity_from_ground_truth(out, spec)
        est = run_sysid(batch3, out.decode, spec.r)
        s_inv = np.linalg.inv(s_id)
        errors = {
            "A": np.linalg.norm(est.a_hat - s_id @ spec.a @ s_inv, 2),
            "B": np.linalg.norm(est.b_hat - s_id @ spec.b, 2),
            "Sigma_w": np.linalg.norm(est.sigma_w_hat - s_id @ spec.sigma_w @ s_id.T, 2),
            "Q": np.linalg.norm(est.q_hat - s_inv.T @ spec.q @ s_inv, 2),
        }
        for name, err in errors.items():
            assert err <= 0.1, f"{name} error {err:.4f}"
        assert np.allclose(est.q_hat, est.q_hat.T)
        assert np.min(np.linalg.eigvalsh(est.q_hat)) >= -1e-12
    assert timer.elapsed < 120.0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in errors.items())
    report(5, f"op-norm errors at n=5e4: {detail} (all <= 0.1); Q symmetric PSD; "
              f"{timer.elapsed:.1f}s")


def _grid_nearest_psd(m: np.ndarray) -> np.ndarray:
    """Brute-force grid minimizer of Frobenius distance over the 2x2 PSD cone.

    Parameterizes PSD matrices as R(theta) diag(mu) R(theta)' and refines the
    grid around the incumbent four times.
    """
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    mu_hi = max(0.0, float(np.max(np.linalg.eigvalsh(m)))) + 0.5
    theta_lo, theta_hi = 0.0, np.pi
    mu1_lo, mu1_hi = 0.0, mu_hi
    mu2_lo, mu2_hi = 0.0, mu_hi
    best = None
    for _ in range(4):
        theta = np.linspace(theta_lo, theta_hi, 24)
        mu1 = np.linspace(mu1_lo, mu1_hi, 24)
        mu2 = np.linspace(mu2_lo, mu2_hi, 24)
        tt, m1, m2 = np.meshgrid(theta, mu1, mu2, indexing="ij")
        ct, st = np.cos(tt), np.sin(tt)
        e11 = ct**2 * m1 + st**2 * m2
        e22 = st**2 * m1 + ct**2 * m2
        e12 = ct * st * (m1 - m2)
        dist = (e11 - a) ** 2 + 2 * (e12 - b) ** 2 + (e22 - c) ** 2
        idx = np.unravel_index(np.argmin(dist), dist.shape)
        best = (tt[idx], m1[idx], m2[idx])
        spans = (theta[1] - theta[0], mu1[1] - mu1[0], mu2[1] - mu2[0])
        theta_lo, theta_hi = best[0] - spans[0], best[0] + spans[0]
        mu1_lo, mu1_hi = max(0.0, best[1] - spans[1]), best[1] + spans[1]
        mu2_lo, mu2_hi = max(0.0, best[2] - spans[2]), best[2] + spans[2]
    th, u1, u2 = best
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return rot @ np.diag([u1, u2]) @ rot.T


def test_criterion_6_psd_projection_optimality():
    with Timer() as timer:
        rng = np.random.default_rng(1006)
        worst = 0.0
        for _ in range(50):
            g = rng.standard_normal((2, 2))
            m = (g + g.T) / 2.0
            proj = psd_project(m)
            grid = _grid_nearest_psd(m)
            diff = np.linalg.norm(proj - grid, "fro")
            worst = max(worst, diff)
            assert diff <= 1e-3
            assert np.linalg.norm(proj - m, "fro") <= np.linalg.norm(grid - m, "fro") + 1e-6
    assert timer.elapsed < 5.0
    report(6, f"50 projections within {worst:.2e} Frobenius of the grid minimizer; "
              f"{timer.elapsed:.1f}s")


def test_criterion_7_noise_shaping_and_increment_fidelity():
    with Timer() as timer:
        spec, emission, cls = make_benchmark_instance("scalar-identity")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                             q_hat=spec.q)
        shaping = build_noise_shaping(spec.a, spec.b, spec.sigma_w, sigma=1.0, kappa=1)
        assert abs(shaping.lambda_m - 1.0) <= 1e-9
        sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
        stack = DecoderStack(a_hat=spec.a, b_hat=spec.b, k_gain=sol.k, b_bar=50.0)
        config = Phase3Config(n_op=20_000, sigma=1.0, t_horizon=1, kappa=1, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, config, seed=71)
        _, h_t = fit_residual_regressors(halves, stack, shaping, config,
                                         truth_only(cls))
        fresh = rollout(spec, emission, PolicyDef(sigma=1.0, gain=sol.k, decoders=stack),
                        horizon=1, n_traj=20_000, base_seed=72)
        inc_hat = (h_t.predict(fresh.observations[:, 1])
                   - h_t.predict(fresh.observations[:, 0]) @ spec.a.T)
        inc_true = fresh.states[:, 1] - fresh.states[:, 0] @ spec.a.T
        err = float(np.mean(np.sum((inc_hat - inc_true) ** 2, axis=1)))
        assert err <= 0.1
    assert timer.elapsed < 60.0
    report(7, f"on-policy increment error {err:.2e} <= 0.1 at n_op=2e4; "
              f"lambda = {shaping.lambda_m}; {timer.elapsed:.1f}s")


def test_criterion_8_initial_state_subroutine():
    with Timer() as timer:
        spec = SystemSpec(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[1.0]], sigma_0=[[1.0]])
        _, emission, cls = make_benchmark_instance("scalar-identity")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                             q_hat=spec.q)
        sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
        stack = DecoderStack(a_hat=spec.a, b_hat=spec.b, k_gain=sol.k, b_bar=50.0)
        config = Phase3Config(n_op=100_000, sigma=1.0, t_horizon=1, kappa=1, r_op=8.0,
                              n_init=100_000)
        shaping = build_noise_shaping(spec.a, spec.b, spec.sigma_w, sigma=1.0, kappa=1)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, config, seed=81)
        _, h_0 = fit_residual_regressors(halves, stack, shaping, config,
                                         truth_only(cls))
        cols = rollout_columns(spec, emission, PolicyDef(sigma=1.0),
                               horizon=1, n_traj=200_000, base_seed=82, obs=(0, 1),
                               injected=(0,))
        pieces = learn_initial_state(cols["obs"][0], cols["obs"][1], cols["injected"][0], h_0,
                                     est, config, truth_only(cls))
        # Sigma_cov target: Sigma_w^2 / (sigma^2 B^2 + Sigma_w) = 1/2
        cov_err = abs(pieces.sigma_cov[0, 0] - 0.5)
        assert cov_err <= 0.05
        fa0 = pieces.f_a0(cols["obs"][0])
        init_err = float(np.mean(np.sum(fa0**2, axis=1)))
        assert init_err <= 0.05
    assert timer.elapsed < 60.0
    report(8, f"Sigma_cov = {pieces.sigma_cov[0,0]:.4f} (|err| {cov_err:.4f} <= 0.05); "
              f"E|f_A0 - A x0|^2 = {init_err:.2e} <= 0.05; {timer.elapsed:.1f}s")


def test_criterion_9_end_to_end():
    with Timer() as timer:
        config = ExperimentConfig(instance="scalar-identity", n_id=20_000, n_op=5_000,
                                  t_horizon=10, n_eval=10_000, seed=42, sigma=0.15)
        result = run_pipeline(config)
        rep = result.report
        assert rep.gap <= 0.5
        assert rep.gap < rep.gap_zero
        assert rep.clip_fraction <= 0.01
    assert timer.elapsed < 300.0
    report(9, f"gap {rep.gap:.4f} +- {rep.gap_stderr:.4f} <= 0.5 and < zero-policy gap "
              f"{rep.gap_zero:.4f}; clip fraction {rep.clip_fraction:.4f} <= 1%; "
              f"{timer.elapsed:.1f}s")


@pytest.mark.parametrize("instance", ["di-cubic-lift", "stable2x1-lift5"])
def test_criterion_9_nonlinear_end_to_end(instance):
    # the headline claim on nonlinear emissions; bounds checked on seeds 6-10
    with Timer() as timer:
        config = ExperimentConfig(instance=instance, n_id=20_000, n_op=5_000,
                                  t_horizon=10, n_eval=10_000, seed=42, sigma=0.15)
        result = run_pipeline(config)
        rep = result.report
        spec, emission, _ = make_benchmark_instance(instance)
        greedy, _ = estimate_gap(spec, emission, result.learned.greedy_policy(),
                                 optimal_policy(spec, emission), config.t_horizon,
                                 config.n_eval, pipeline._eval_seed(config))
        assert rep.gap < rep.gap_zero - 10 * rep.gap_stderr
        assert greedy <= 0.25 * rep.gap_zero
        assert rep.clip_fraction <= 0.01
    assert timer.elapsed < 300.0
    report(9, f"{instance}: gap {rep.gap:.4f} +- {rep.gap_stderr:.4f} < zero-policy gap "
              f"{rep.gap_zero:.4f} - 10 stderr; greedy gap {greedy:.4f} <= 0.25 zero-policy gap; "
              f"clip fraction {rep.clip_fraction:.4f} <= 1%; {timer.elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    with Timer() as timer:
        config = ExperimentConfig(instance="scalar-identity", n_id=1_500, n_op=600,
                                  t_horizon=3, n_eval=500, seed=12345, sigma=0.3,
                                  kappa0_override=5)
        run_pipeline(config, outdir=tmp_path / "first")
        run_pipeline(config, outdir=tmp_path / "second")
        for name in ("report.csv", "decoder_errors.csv"):
            a = (tmp_path / "first" / name).read_bytes()
            b = (tmp_path / "second" / name).read_bytes()
            assert a == b
    report(10, f"reruns byte-identical (report.csv, decoder_errors.csv); "
               f"{timer.elapsed:.1f}s")
