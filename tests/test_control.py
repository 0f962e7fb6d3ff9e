"""Linear-control numerics: Lyapunov, DARE, certificates, controllability, PSD."""
import numpy as np
import pytest
import scipy.linalg

from latentlqr import (ConvergenceError, UnstableMatrixError, ValidationError,
                       controllability, make_benchmark_instance, open_loop_state_cov,
                       optimal_policy, parameter_bounds, psd_project, rollout, solve_dare,
                       solve_lyapunov, strong_stability_cert)
from latentlqr.benchmarks import CATALOG
from latentlqr.control import controllability_matrix, row_sq_norms, rowmap
from latentlqr.system import CHUNK_ROWS

from helpers import random_spd, random_stable


class TestRowmap:
    @pytest.mark.parametrize("d_out", range(1, 6))
    @pytest.mark.parametrize("d_in", range(1, 6))
    @pytest.mark.parametrize("n", [1, 2, 3, 10_000, CHUNK_ROWS + 1])
    def test_bitwise_equal_to_the_transposed_product(self, n, d_in, d_out):
        rng = np.random.default_rng(1000 * n + 10 * d_in + d_out)
        m = rng.standard_normal((d_out, d_in))
        wide = rng.standard_normal((n, d_in + 2))
        # a contiguous batch and a strided column view, as decoders receive
        for x in (np.ascontiguousarray(wide[:, :d_in]), wide[:, 1:1 + d_in]):
            assert np.array_equal(rowmap(x, m), x @ m.T)


class TestRowSqNorms:
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [1, 2, 3, 10_000])
    def test_bitwise_equal_to_the_row_sum_and_norm(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        wide = rng.standard_normal((n, d + 2)) * rng.uniform(0.1, 100.0, (n, d + 2))
        for x in (np.ascontiguousarray(wide[:, :d]), wide[:, 1:1 + d]):
            sq = row_sq_norms(x)
            assert np.array_equal(sq, np.sum(x * x, axis=1))
            assert np.array_equal(np.sqrt(sq), np.linalg.norm(x, axis=1))

    def test_docstring_states_the_column_limit(self):
        assert "up to 7 columns" in " ".join(row_sq_norms.__doc__.split())


class TestLyapunov:
    def test_zero_matrix(self):
        p = solve_lyapunov(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(p, np.eye(2))

    def test_scalar_geometric_series(self):
        p = solve_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(p[0, 0] - 4.0 / 3.0) < 1e-9

    def test_unstable_rejected(self):
        with pytest.raises(UnstableMatrixError):
            solve_lyapunov(np.array([[1.1]]), np.array([[1.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_iterate_raises_at_once(self):
        # 0.81e308 + 1e308 overflows on the first step; a nan iterate would
        # otherwise be iterated up to the cap
        with pytest.raises(ConvergenceError, match="non-finite"):
            solve_lyapunov(0.9 * np.eye(2), 1e308 * np.eye(2))

    def test_residual_bound_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            x = random_stable(rng, d, rho=0.85)
            y = random_spd(rng, d, floor=0.5)
            p = solve_lyapunov(x, y)
            resid = np.linalg.norm(p - x.T @ p @ x - y, "fro")
            assert resid <= 1e-10 * (1 + np.linalg.norm(p, "fro"))


class TestStrongStability:
    def test_zero_matrix(self):
        cert = strong_stability_cert(np.zeros((3, 3)))
        assert abs(cert.alpha - 1.0) < 1e-9
        assert abs(cert.gamma) < 1e-9

    def test_scalar_half(self):
        cert = strong_stability_cert(np.array([[0.5]]))
        assert abs(cert.alpha - 1.0) < 1e-9
        assert abs(cert.gamma - 0.5) < 1e-9

    def test_diagonal_gamma_tight(self):
        x = np.diag([0.9, 0.1])
        cert = strong_stability_cert(x)
        assert cert.gamma >= 0.9 - 1e-9
        for n in range(51):
            assert np.linalg.norm(np.linalg.matrix_power(x, n), 2) <= cert.alpha * cert.gamma**n * (1 + 1e-6)

    def test_witness_invariants_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            x = random_stable(rng, d, rho=0.9)
            cert = strong_stability_cert(x)
            s = cert.witness
            s_inv = np.linalg.inv(s)
            assert np.linalg.norm(s, 2) * np.linalg.norm(s_inv, 2) <= cert.alpha * (1 + 1e-9)
            assert np.linalg.norm(s_inv @ x @ s, 2) <= cert.gamma + 1e-9
            assert cert.gamma < 1.0


class TestValueWitness:
    """The closed-loop certificate from the Riccati solution, the
    stability_witness = value path of parameter_bounds."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_closed_loop_certificate_is_sound(self, name):
        spec, _, _ = make_benchmark_instance(name)
        sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
        a_cl = spec.a + spec.b @ sol.k
        cert = strong_stability_cert(a_cl, p=sol.p, y=spec.q + sol.k.T @ spec.r @ sol.k)
        assert cert.gamma < 1.0
        for n in range(51):
            norm_n = np.linalg.norm(np.linalg.matrix_power(a_cl, n), 2)
            assert norm_n <= cert.alpha * cert.gamma**n * (1 + 1e-6)

    @pytest.mark.parametrize("name", CATALOG)
    def test_bounds_agree_with_the_lyapunov_witness_on_kappa(self, name):
        spec, _, _ = make_benchmark_instance(name)
        value = parameter_bounds(spec, witness="value")
        lyapunov = parameter_bounds(spec, witness="lyapunov")
        assert value.kappa == lyapunov.kappa
        assert value.gamma_star < 1.0
        assert value.psi_star == lyapunov.psi_star
        if name == "stable2x1-lift5":  # the value witness is the tighter one here
            assert value.alpha_star == pytest.approx(1.2389, abs=1e-4)
            assert lyapunov.alpha_star == pytest.approx(1.3109, abs=1e-4)
        else:
            assert value.alpha_star == lyapunov.alpha_star

    def test_unknown_witness_rejected(self):
        spec, _, _ = make_benchmark_instance("scalar-identity")
        with pytest.raises(ValidationError, match="witness"):
            parameter_bounds(spec, witness="bogus")


class TestDare:
    def test_no_dynamics(self):
        sol = solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
        assert np.allclose(sol.p, np.eye(2))
        assert np.allclose(sol.k, 0.0)

    def test_scalar_quadratic_root_oracle(self):
        # p solves p^2 - 0.25 p - 1 = 0 for a=0.5, b=q=r=1
        p_star = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
        k_star = -0.5 * p_star / (1.0 + p_star)
        sol = solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
        assert abs(sol.p[0, 0] - p_star) < 1e-9
        assert abs(sol.k[0, 0] - k_star) < 1e-9

    def test_contraction_example(self):
        sol = solve_dare(0.9 * np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        rho = max(abs(np.linalg.eigvals(0.9 * np.eye(2) + sol.k)))
        assert rho < 0.9

    def test_scipy_cross_check(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d_x, d_u = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            a = random_stable(rng, d_x, rho=0.85)
            b = rng.standard_normal((d_x, d_u))
            q = random_spd(rng, d_x)
            r = random_spd(rng, d_u)
            sol = solve_dare(a, b, q, r)
            p_ref = scipy.linalg.solve_discrete_are(a, b, q, r)
            assert np.linalg.norm(sol.p - p_ref, "fro") <= 1e-6 * np.linalg.norm(p_ref, "fro")

    def test_indefinite_rejected(self):
        with pytest.raises(ValidationError):
            solve_dare([[0.5]], [[1.0]], [[-1.0]], [[1.0]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_iterate_raises_at_once(self):
        # A'QA overflows on the first step; a nan iterate would otherwise be
        # iterated up to the cap
        spec, _, _ = make_benchmark_instance("di-cubic-lift")
        a = spec.a.copy()
        a[0, 0] = 1e155
        with pytest.raises(ConvergenceError, match="non-finite at iteration 1"):
            solve_dare(a, spec.b, spec.q, spec.r)

    def test_singular_riccati_step_raises(self):
        # A[0,0] = 1e10 drives P so large that R + B'PB is singular in floating point
        with pytest.raises(ConvergenceError, match="went singular at iteration 3"):
            solve_dare([[1e10, 0.2], [0.0, 0.45]], [[0.9, 0.1], [0.0, 0.9]],
                       np.eye(2), np.eye(2))


class TestControllability:
    def test_double_integrator(self):
        a, b = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])
        info = controllability(a, b, 3)
        assert np.allclose(controllability_matrix(a, b, 2), np.eye(2))
        assert info.kappa_star == 2

    def test_full_row_rank_input(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        info = controllability(0.5 * np.eye(3), b, 2)
        assert info.kappa_star == 1

    def test_uncontrollable(self):
        info = controllability(np.eye(2), np.zeros((2, 1)), 4)
        assert info.kappa_star is None
        assert info.sigma_min is None

    def test_block_layout(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        c4 = controllability_matrix(a, b, 4)
        for j in range(4):
            block = c4[:, 2 * j:2 * (j + 1)]
            assert np.array_equal(block, np.linalg.matrix_power(a, 4 - 1 - j) @ b)


class TestPsdProject:
    def test_clamp_negative(self):
        assert np.allclose(psd_project(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = random_spd(rng, 3, floor=0.0)
        assert np.allclose(psd_project(m), m, atol=1e-12)
        sym = rng.standard_normal((3, 3))
        sym = sym + sym.T
        once = psd_project(sym)
        assert np.allclose(psd_project(once), once, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_loewner_monotone_on_shared_eigenbasis(self):
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d1 = np.array([-2.0, -0.5, 1.0])
        d2 = d1 + np.array([0.3, 1.0, 0.7])  # d2 >= d1 entrywise
        m1 = (v * d1) @ v.T
        m2 = (v * d2) @ v.T
        diff = psd_project(m2) - psd_project(m1)
        assert np.min(np.linalg.eigvalsh((diff + diff.T) / 2)) >= -1e-10


class TestStateCov:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        a = random_stable(rng, 2, rho=0.7)
        b = rng.standard_normal((2, 1))
        sw = random_spd(rng, 2, floor=0.2)
        s0 = random_spd(rng, 2, floor=0.1)
        k = 5
        expected = np.linalg.matrix_power(a, k) @ s0 @ np.linalg.matrix_power(a, k).T
        for t in range(1, k + 1):
            at = np.linalg.matrix_power(a, t - 1)
            expected += at @ (sw + b @ b.T) @ at.T
        assert np.allclose(open_loop_state_cov(a, b, sw, s0, k), expected, atol=1e-12)


class TestOptimalPolicy:
    def test_zero_dynamics_zero_gain(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        from latentlqr.system import SystemSpec

        spec0 = SystemSpec(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                           sigma_w=[[1.0]], sigma_0=[[1.0]])
        policy = optimal_policy(spec0, emission)
        assert np.allclose(policy.gain, 0.0)

    def test_noiseless_start_costs_zero(self):
        from latentlqr.system import SystemSpec

        spec, emission, _ = make_benchmark_instance("scalar-identity")
        quiet = SystemSpec(a=spec.a, b=spec.b, q=spec.q, r=spec.r,
                           sigma_w=[[0.0]], sigma_0=[[0.0]])
        policy = optimal_policy(spec, emission)
        batch = rollout(quiet, emission, policy, horizon=5, n_traj=3, base_seed=0)
        assert np.allclose(batch.costs, 0.0)

    def test_scalar_gain_applied_to_observation(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        policy = optimal_policy(spec, emission)
        batch = rollout(spec, emission, policy, horizon=4, n_traj=5, base_seed=1)
        expected = batch.observations[:, 2] @ policy.gain.T
        assert np.allclose(batch.inputs[:, 2], expected)
