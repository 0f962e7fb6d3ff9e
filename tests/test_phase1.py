"""Coarse-decoder phase: burn-in formula, data collection, fit, PCA."""
import math

import numpy as np
import pytest

from latentlqr import rng as rngmod
from latentlqr import (DegenerateSpectrumError, DecoderClass, Phase1Config, SystemSpec,
                       ValidationError, align_decoder, burn_in_kappa0,
                       collect_id_data, fit_coarse_decoder, make_benchmark_instance,
                       open_loop_state_cov, parameter_bounds, rollout_columns,
                       similarity_from_ground_truth)
from latentlqr.errors import InfeasibleBurnInError
from latentlqr.evaluate import bayes_map
from latentlqr.system import PolicyDef

from helpers import principal_angle, truth_only


def config(**kwargs) -> Phase1Config:
    base = dict(n_id=1000, kappa=1, psi_star=1.0, alpha_star=1.0, gamma_star=0.5,
                d_x=1, d_u=1)
    base.update(kwargs)
    return Phase1Config(**base)


class TestBurnIn:
    def test_formula_oracle(self):
        # independent evaluation: ceil(2 ln(84 * 4 * ln(1e6))) = 17
        expected = math.ceil(2.0 * math.log(84.0 * 4.0 * math.log(1e6)))
        assert expected == 17
        assert burn_in_kappa0(config()) == 17

    def test_monotone_in_gamma(self):
        assert burn_in_kappa0(config(gamma_star=0.9)) > burn_in_kappa0(config(gamma_star=0.5))

    def test_doubly_log_in_n(self):
        lo = burn_in_kappa0(config(n_id=1000))
        hi = burn_in_kappa0(config(n_id=1_000_000))
        inner_lo = 84.0 * 4.0 * math.log(1e6)
        inner_hi = 84.0 * 4.0 * math.log(1e9)
        assert hi == math.ceil(2.0 * math.log(inner_hi))
        assert hi - lo <= math.ceil(2.0 * (math.log(inner_hi) - math.log(inner_lo))) + 1

    def test_cap(self):
        with pytest.raises(InfeasibleBurnInError):
            burn_in_kappa0(config(gamma_star=0.99999))

    @pytest.mark.parametrize("bounds", [dict(psi_star=1e100), dict(alpha_star=1e100),
                                        dict(psi_star=math.inf), dict(alpha_star=math.nan)])
    def test_overflow_is_infeasible(self, bounds):
        # psi**5 overflows a float, or the formula is not finite
        with pytest.raises(InfeasibleBurnInError, match="not finite"):
            burn_in_kappa0(config(**bounds))

    def test_override(self):
        assert burn_in_kappa0(config(kappa0_override=0)) == 0

    # kappa0 at the perfbench workloads' n_id: a flip would move every artifact
    @pytest.mark.parametrize("name,witness,n_id,kappa0", [
        ("scalar-identity", "lyapunov", 20_000, 21), ("scalar-identity", "lyapunov", 500_000, 22),
        ("scalar-identity", "value", 20_000, 21), ("scalar-identity", "value", 500_000, 22),
        ("di-cubic-lift", "lyapunov", 20_000, 37), ("di-cubic-lift", "lyapunov", 500_000, 37),
        ("di-cubic-lift", "value", 20_000, 37), ("di-cubic-lift", "value", 500_000, 37),
        ("stable2x1-lift5", "lyapunov", 20_000, 46), ("stable2x1-lift5", "lyapunov", 500_000, 47),
        ("stable2x1-lift5", "value", 20_000, 45), ("stable2x1-lift5", "value", 500_000, 46),
    ])
    def test_catalog_kappa0_pinned(self, name, witness, n_id, kappa0):
        spec, _, _ = make_benchmark_instance(name)
        b = parameter_bounds(spec, witness=witness)
        assert burn_in_kappa0(config(n_id=n_id, kappa=b.kappa, psi_star=b.psi_star,
                                     alpha_star=b.alpha_star, gamma_star=b.gamma_star,
                                     d_x=spec.d_x, d_u=spec.d_u)) == kappa0

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            config(gamma_star=1.0)
        with pytest.raises(ValidationError):
            config(n_id=0)

    def test_input_window_narrower_than_state(self):
        # one scalar input per window cannot span a two-dimensional state
        with pytest.raises(ValidationError, match="kappa"):
            config(kappa=1, d_x=2, d_u=1)
        assert config(kappa=2, d_x=2, d_u=1).kappa == 2


# The columns each batch's fit reads: h_id's regression, the PCA, system identification.
KEPT = ({"y_now", "v"}, {"y_now"}, {"y_now", "y_next", "u_now", "cost_now"})


def reference_columns(spec, emission, cfg, n_traj, seed):
    """Each batch's own rollout of n_traj rows: batch k reads seed derive_seed(seed, k)
    and starts at kappa0, kappa1, kappa1; each records every column through kappa1 + 1."""
    k0, k1 = cfg.kappa0, cfg.kappa1
    return [rollout_columns(spec, emission, PolicyDef(sigma=1.0), horizon=k1 + 1,
                            n_traj=n_traj, base_seed=rngmod.derive_seed(seed, k),
                            obs=(k1, k1 + 1), inputs=tuple(range(start, k1 + 1)),
                            costs=(k1,), start=start)
            for k, start in ((1, k0), (2, k1), (3, k1))]


def assert_batches_are_own_rollouts(data, cfg, references, n):
    """Batch k keeps the first n rows of each column its fit reads from its own
    rollout, in an array of its own; every other field is None."""
    k0, k1 = cfg.kappa0, cfg.kappa1
    for k, (batch, kept, ref) in enumerate(zip(data, KEPT, references)):
        columns = {"y_now": ref["obs"][k1], "y_next": ref["obs"][k1 + 1],
                   "u_now": ref["inputs"][k1], "cost_now": ref["costs"][k1]}
        if k == 0:  # only batch 1's rollout starts before kappa1
            columns["v"] = np.hstack([ref["inputs"][t] for t in range(k0, k1)])
        for name in ("y_now", "y_next", "u_now", "cost_now", "v"):
            value = getattr(batch, name)
            if name in kept:
                assert value.base is None, (k, name)
                assert np.array_equal(value, columns[name][:n]), (k, name)
            else:
                assert value is None, (k, name)


class TestCollect:
    def test_window_dimension_and_batches(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = config(n_id=50, kappa=1, kappa0_override=3, d_x=1, d_u=1)
        data = collect_id_data(spec, emission, cfg, seed=0)
        assert cfg.kappa0 == 3 and cfg.kappa1 == 4
        assert data[0].v.shape == (50, 1)
        for batch in data:
            assert batch.y_now.shape == (50, 1) and batch.n == 50
        assert_batches_are_own_rollouts(data, cfg, reference_columns(spec, emission, cfg, 150, 0),
                                        50)

    def test_batches_are_rollouts_of_their_own(self):
        # di-cubic-lift's window holds two 2-d inputs, so v stacks two columns
        for name, kappa in (("scalar-identity", 1), ("di-cubic-lift", 2)):
            spec, emission, _ = make_benchmark_instance(name)
            cfg = config(n_id=20, kappa=kappa, kappa0_override=2, d_x=spec.d_x, d_u=spec.d_u)
            data = batch1, batch2, batch3 = collect_id_data(spec, emission, cfg, seed=5)
            k1 = cfg.kappa1
            # rows do not depend on n: each batch is the head of a longer run of its stream
            first, second, third = reference_columns(spec, emission, cfg, 60, 5)
            assert np.array_equal(batch1.y_now, first["obs"][k1][:20])
            assert np.array_equal(batch2.y_now, second["obs"][k1][:20])
            assert np.array_equal(batch3.y_next, third["obs"][k1 + 1][:20])
            assert np.array_equal(batch3.cost_now, third["costs"][k1][:20])
            assert batch1.v.shape == (20, kappa * spec.d_u)
            assert_batches_are_own_rollouts(data, cfg, (first, second, third), 20)
            # three independent streams, not three views of one
            assert not np.array_equal(batch1.y_now, batch2.y_now)
            assert not np.array_equal(batch2.y_now, batch3.y_now)

    @pytest.mark.parametrize("name", ["di-cubic-lift", "stable2x1-lift5"])
    def test_window_has_the_law_of_a_full_run(self, name):
        """Starting at kappa0 from N(0, Sigma_kappa0) leaves x_kappa1 with the
        covariance of a simulation from t = 0, and the recorded inputs are
        bitwise the full simulation's."""
        spec, emission, _ = make_benchmark_instance(name)
        bounds = parameter_bounds(spec)
        cfg = Phase1Config(n_id=20_000, kappa=bounds.kappa, psi_star=bounds.psi_star,
                           alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star,
                           d_x=spec.d_x, d_u=spec.d_u)
        batch1, _, batch3 = collect_id_data(spec, emission, cfg, seed=9)
        k0, k1, n = cfg.kappa0, cfg.kappa1, 3 * cfg.n_id
        assert k0 == burn_in_kappa0(cfg) > 30
        window = tuple(range(k0, k1 + 1))
        policy = PolicyDef(sigma=1.0)
        # 3 n_id rows of batch 1's stream, from t = 0 and from kappa0
        full, part = (rollout_columns(spec, emission, policy, horizon=k1 + 1, n_traj=n,
                                      base_seed=rngmod.derive_seed(9, 1), states=(k1,),
                                      inputs=window, start=start)
                      for start in (0, k0))
        v = np.hstack([full["inputs"][t] for t in window[:-1]])
        assert np.array_equal(batch1.v, v[:cfg.n_id])
        third = rollout_columns(spec, emission, policy, horizon=k1 + 1, n_traj=cfg.n_id,
                                base_seed=rngmod.derive_seed(9, 3), inputs=(k1,))
        assert np.array_equal(batch3.u_now, third["inputs"][k1])
        for t in window:
            assert np.array_equal(part["inputs"][t], full["inputs"][t])
        target = open_loop_state_cov(spec.a, spec.b, spec.sigma_w, spec.sigma_0, k1)
        diag = np.diag(target)
        stderr = np.sqrt((np.outer(diag, diag) + target**2) / n)
        for cols in (full, part):
            x = cols["states"][k1]
            assert np.all(np.abs(x.T @ x / n - target) <= 4 * stderr)
        assert not np.array_equal(part["states"][k1], full["states"][k1])

    def test_every_batch_observes_the_marginal_at_kappa1(self):
        """y = x on scalar-identity: batch 1 reaches x_kappa1 by simulation from
        kappa0, batches 2 and 3 draw it from N(0, Sigma_kappa1) directly."""
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = config(n_id=20_000, kappa=1, kappa0_override=1)
        batch1, batch2, batch3 = collect_id_data(spec, emission, cfg, seed=4)
        target = open_loop_state_cov(spec.a, spec.b, spec.sigma_w, spec.sigma_0,
                                     cfg.kappa1)[0, 0]
        stderr = math.sqrt(2 * target**2 / cfg.n_id)
        for batch in (batch1, batch2, batch3):
            assert abs(float(batch.y_now[:, 0] @ batch.y_now[:, 0]) / cfg.n_id - target) \
                <= 4 * stderr

    def test_window_covariance_is_identity(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        cfg = config(n_id=34000, kappa=2, kappa0_override=0, d_u=1)
        batch1, _, _ = collect_id_data(spec, emission, cfg, seed=1)
        # 3 n_id window rows of batch 1's stream
        first = reference_columns(spec, emission, cfg, 3 * cfg.n_id, 1)[0]
        v = np.hstack([first["inputs"][t] for t in range(cfg.kappa0, cfg.kappa1)])
        assert np.array_equal(batch1.v, v[:cfg.n_id])
        cov = v.T @ v / v.shape[0]
        assert np.linalg.norm(cov - np.eye(2), 2) <= 0.02


class TestBayesMap:
    def test_scalar_closed_form(self):
        # A=0, B=1, Sigma_w=1, kappa=1, kappa0=0: target is 0.5 * f_star
        spec = SystemSpec(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[1.0]], sigma_0=[[1.0]])
        assert np.allclose(bayes_map(spec, kappa=1, kappa1=1), [[0.5]])

    def test_scalar_fit_matches_population(self):
        spec = SystemSpec(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[1.0]], sigma_0=[[1.0]])
        _, emission, cls = make_benchmark_instance("scalar-identity")
        cfg = config(n_id=100_000, kappa=1, kappa0_override=0)
        batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=2)
        out = fit_coarse_decoder(batch1, batch2, cls, cfg)
        assert abs(out.h_id.m[0, 0] - 0.5) <= 0.05


class TestFitCoarseDecoder:
    def test_linear_emission_alignment(self):
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        cfg = config(n_id=20_000, kappa=1, kappa0_override=10, d_x=2, d_u=2,
                     psi_star=2.1, alpha_star=1.4, gamma_star=0.72)
        batch1, batch2, batch3 = collect_id_data(spec, emission, cfg, seed=3)
        out = fit_coarse_decoder(batch1, batch2, truth_only(cls), cfg)
        res = align_decoder(out.decode, emission.decode_batch, batch3.y_now)
        assert res.residual <= 1e-3

    def test_full_square_pca_is_rotation(self):
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        cfg = config(n_id=2_000, kappa=1, kappa0_override=5, d_x=2, d_u=2,
                     psi_star=2.1, alpha_star=1.4, gamma_star=0.72)
        batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=4)
        out = fit_coarse_decoder(batch1, batch2, truth_only(cls), cfg)
        assert out.v_id.shape == (2, 2)
        assert np.allclose(out.v_id.T @ out.v_id, np.eye(2), atol=1e-9)

    def test_pca_span_principal_angle(self):
        # kappa above kappa_star makes the window 4-dim while d_x = 2
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        cfg = config(n_id=100_000, kappa=2, kappa0_override=5, d_x=2, d_u=2,
                     psi_star=2.1, alpha_star=1.4, gamma_star=0.72)
        batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=5)
        out = fit_coarse_decoder(batch1, batch2, truth_only(cls), cfg)
        target = bayes_map(spec, kappa=2, kappa1=cfg.kappa1).T  # columns span the map
        angle = principal_angle(out.v_id, target.T)
        assert angle <= 0.1

    def test_degenerate_spectrum_error(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        zero_class = DecoderClass(candidates=(lambda y: np.zeros((np.atleast_2d(y).shape[0], 2)),))
        cfg = config(n_id=200, kappa=2, kappa0_override=0, d_x=2, d_u=2)
        batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=6)
        with pytest.raises(DegenerateSpectrumError):
            fit_coarse_decoder(batch1, batch2, zero_class, cfg)

    def test_orthonormal_columns(self):
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        cfg = config(n_id=3_000, kappa=2, kappa0_override=5, d_x=2, d_u=2,
                     psi_star=2.1, alpha_star=1.4, gamma_star=0.72)
        batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=7)
        out = fit_coarse_decoder(batch1, batch2, truth_only(cls), cfg)
        assert np.allclose(out.v_id.T @ out.v_id, np.eye(2), atol=1e-9)
        # sign convention: largest-magnitude entry of each column is positive
        for j in range(out.v_id.shape[1]):
            col = out.v_id[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_similarity_positive_sigma_min(self):
        from latentlqr import controllability, parameter_bounds

        for name in ("scalar-identity", "di-cubic-lift", "stable2x1-lift5"):
            spec, emission, cls = make_benchmark_instance(name)
            bounds = parameter_bounds(spec)
            cfg = config(n_id=5_000, kappa=bounds.kappa, kappa0_override=8,
                         d_x=spec.d_x, d_u=spec.d_u, psi_star=bounds.psi_star,
                         alpha_star=bounds.alpha_star, gamma_star=bounds.gamma_star)
            batch1, batch2, _ = collect_id_data(spec, emission, cfg, seed=8)
            out = fit_coarse_decoder(batch1, batch2, truth_only(cls), cfg)
            s_id = similarity_from_ground_truth(out, spec)
            sigma_min = np.linalg.svd(s_id, compute_uv=False)[-1]
            assert sigma_min > 0
            # analysis lower bound, recorded for reference (loose by design)
            info = controllability(spec.a, spec.b)
            bound = (info.sigma_min * (1 - bounds.gamma_star)
                     / (4 * bounds.psi_star**2 * bounds.alpha_star**2))
            assert bound > 0
