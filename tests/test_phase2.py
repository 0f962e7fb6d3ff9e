"""System identification phase: dynamics, noise covariance, cost recovery."""
import numpy as np
import pytest

from latentlqr import (Phase1Config, SystemSpec, ValidationError, collect_id_data,
                       fit_coarse_decoder, fit_cost, fit_dynamics, fit_noise_cov,
                       make_benchmark_instance, run_sysid, similarity_from_ground_truth)


def id_config(spec, n_id, kappa0=8, kappa=None):
    from latentlqr import parameter_bounds

    b = parameter_bounds(spec)
    return Phase1Config(n_id=n_id, kappa=kappa if kappa is not None else b.kappa,
                        psi_star=b.psi_star, alpha_star=b.alpha_star,
                        gamma_star=b.gamma_star, d_x=spec.d_x, d_u=spec.d_u,
                        kappa0_override=kappa0)


def decoded(batch, emission):
    """The batch's y_now and y_next through the true decoder, as the fits take them."""
    return emission.decode_batch(batch.y_now), emission.decode_batch(batch.y_next)


class TestFitDynamics:
    def test_noiseless_exact(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        quiet = SystemSpec(a=spec.a, b=spec.b, q=spec.q, r=spec.r,
                           sigma_w=[[0.0]], sigma_0=[[1.0]])
        cfg = Phase1Config(n_id=200, kappa=1, psi_star=2.0, alpha_star=1.2,
                           gamma_star=0.6, d_x=1, d_u=1, kappa0_override=2)
        *_, batch3 = collect_id_data(quiet, emission, cfg, seed=0)
        a_hat, b_hat = fit_dynamics(batch3, *decoded(batch3, emission))
        assert abs(a_hat[0, 0] - 0.5) < 1e-8
        assert abs(b_hat[0, 0] - 1.0) < 1e-8

    def test_statistical_recovery(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = id_config(spec, n_id=50_000, kappa0=10)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=1)
        a_hat, b_hat = fit_dynamics(batch3, *decoded(batch3, emission))
        assert abs(a_hat[0, 0] - 0.5) <= 0.05
        assert abs(b_hat[0, 0] - 1.0) <= 0.05

    def test_zero_system(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        zero = SystemSpec(a=[[0.0]], b=[[0.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[1.0]], sigma_0=[[1.0]])
        cfg = Phase1Config(n_id=20_000, kappa=1, psi_star=2.0, alpha_star=1.2,
                           gamma_star=0.6, d_x=1, d_u=1, kappa0_override=2)
        *_, batch3 = collect_id_data(zero, emission, cfg, seed=2)
        a_hat, b_hat = fit_dynamics(batch3, *decoded(batch3, emission))
        assert abs(a_hat[0, 0]) <= 0.05
        assert abs(b_hat[0, 0]) <= 0.05


class TestFitNoiseCov:
    def test_statistical_recovery(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = id_config(spec, n_id=50_000, kappa0=10)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=3)
        sw = fit_noise_cov(batch3, *decoded(batch3, emission), spec.a, spec.b)
        assert abs(sw[0, 0] - 1.0) <= 0.05

    def test_noiseless_zero(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        quiet = SystemSpec(a=spec.a, b=spec.b, q=spec.q, r=spec.r,
                           sigma_w=[[0.0]], sigma_0=[[1.0]])
        cfg = Phase1Config(n_id=500, kappa=1, psi_star=2.0, alpha_star=1.2,
                           gamma_star=0.6, d_x=1, d_u=1, kappa0_override=2)
        *_, batch3 = collect_id_data(quiet, emission, cfg, seed=4)
        sw = fit_noise_cov(batch3, *decoded(batch3, emission), quiet.a, quiet.b)
        assert abs(sw[0, 0]) < 1e-12

    def test_always_psd(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=2_000)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=5)
        a_hat, b_hat = fit_dynamics(batch3, *decoded(batch3, emission))
        sw = fit_noise_cov(batch3, *decoded(batch3, emission), a_hat, b_hat)
        assert np.min(np.linalg.eigvalsh(sw)) >= -1e-12
        assert np.allclose(sw, sw.T)


class TestFitCost:
    def test_scalar_exact(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = Phase1Config(n_id=300, kappa=1, psi_star=2.0, alpha_star=1.2,
                           gamma_star=0.6, d_x=1, d_u=1, kappa0_override=2)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=6)
        q = fit_cost(batch3, emission.decode_batch(batch3.y_now), spec.r)
        assert abs(q[0, 0] - 1.0) < 1e-6

    def test_statistical_recovery_2d(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=50_000)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=7)
        q = fit_cost(batch3, emission.decode_batch(batch3.y_now), spec.r)
        assert np.linalg.norm(q - np.eye(2), 2) <= 0.05

    def test_too_few_samples(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=2_000)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=8)
        small = type(batch3)(y_now=batch3.y_now[:2], y_next=batch3.y_next[:2],
                                  u_now=batch3.u_now[:2], cost_now=batch3.cost_now[:2])
        with pytest.raises(ValidationError):
            fit_cost(small, emission.decode_batch(small.y_now), spec.r)

    def test_symmetric_psd(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=3_000)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=9)
        q = fit_cost(batch3, emission.decode_batch(batch3.y_now), spec.r)
        assert np.allclose(q, q.T)
        assert np.min(np.linalg.eigvalsh(q)) >= -1e-12


class TestBasisConsistency:
    def test_errors_shrink_with_n(self):
        """Total op-norm error in the identified basis roughly halves with 4x data."""
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")

        def total_error(n_id, seed):
            cfg = id_config(spec, n_id=n_id, kappa0=15)
            batch1, batch2, batch3 = collect_id_data(spec, emission, cfg, seed=seed)
            out = fit_coarse_decoder(batch1, batch2, cls, cfg)
            s_id = similarity_from_ground_truth(out, spec)
            est = run_sysid(batch3, out.decode, spec.r)
            s_inv = np.linalg.inv(s_id)
            a_id = s_id @ spec.a @ s_inv
            b_id = s_id @ spec.b
            sw_id = s_id @ spec.sigma_w @ s_id.T
            q_id = s_inv.T @ spec.q @ s_inv
            return (np.linalg.norm(est.a_hat - a_id, 2) + np.linalg.norm(est.b_hat - b_id, 2)
                    + np.linalg.norm(est.sigma_w_hat - sw_id, 2)
                    + np.linalg.norm(est.q_hat - q_id, 2))

        seeds = (21, 34, 55)
        err_small = np.mean([total_error(4_000, s) for s in seeds])
        err_large = np.mean([total_error(16_000, s) for s in seeds])
        assert 1.2 <= err_small / err_large <= 3.5

    def test_joint_ls_residual_orthogonality(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=5_000)
        *_, batch3 = collect_id_data(spec, emission, cfg, seed=10)
        a_hat, b_hat = fit_dynamics(batch3, *decoded(batch3, emission))
        x_now = emission.decode_batch(batch3.y_now)
        x_next = emission.decode_batch(batch3.y_next)
        design = np.hstack([x_now, batch3.u_now])
        resid = x_next - design @ np.hstack([a_hat, b_hat]).T
        cross = np.linalg.norm(resid.T @ design, "fro")
        scale = np.linalg.norm(design, "fro") * np.linalg.norm(x_next, "fro")
        assert cross <= 1e-6 * scale


class TestRunSysid:
    def test_each_column_is_decoded_once(self):
        """run_sysid decodes y_now and y_next once each, and its estimates are
        bitwise those of fits that each decode the columns afresh."""
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        cfg = id_config(spec, n_id=3_000)
        batch1, batch2, batch3 = collect_id_data(spec, emission, cfg, seed=11)
        out = fit_coarse_decoder(batch1, batch2, cls, cfg)
        calls = []

        def counting(y):
            calls.append(y)
            return out.decode(y)

        est = run_sysid(batch3, counting, spec.r)
        assert len(calls) == 2
        assert {id(y) for y in calls} == {id(batch3.y_now), id(batch3.y_next)}
        batch, decode = batch3, out.decode
        a_hat, b_hat = fit_dynamics(batch, decode(batch.y_now), decode(batch.y_next))
        expected = dict(
            a_hat=a_hat, b_hat=b_hat,
            sigma_w_hat=fit_noise_cov(batch, decode(batch.y_now), decode(batch.y_next),
                                      a_hat, b_hat),
            q_hat=fit_cost(batch, decode(batch.y_now), spec.r))
        for name, value in expected.items():
            got = getattr(est, name)
            assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
