"""Policy-computation phase: shaping, on-policy collection, decoder updates."""
import numpy as np
import pytest

from latentlqr import (Phase3Config, SystemSpec, SysIdEstimates, ValidationError,
                       build_noise_shaping, collect_onpolicy, compute_policy,
                       decoder_update, fit_residual_regressors, learn_initial_state,
                       make_benchmark_instance, rollout, rollout_columns, solve_dare)
from latentlqr import phase3
from latentlqr.control import controllability_matrix, rowmap
from latentlqr.errors import IllConditionedCovarianceError, NumericalError
from latentlqr.phase3 import DecoderStack, InitialStatePieces, default_clip_radius
from latentlqr.regression import (DecoderClass, FittedRegressor, StructuredClass,
                                  erm_fit_increment)
from latentlqr import system
from latentlqr.system import PolicyDef

from helpers import truth_only


def scalar_pieces(a=0.5, sw=1.0, s0=1.0):
    spec = SystemSpec(a=[[a]], b=[[1.0]], q=[[1.0]], r=[[1.0]], sigma_w=[[sw]], sigma_0=[[s0]])
    _, emission, cls = make_benchmark_instance("scalar-identity")
    est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w, q_hat=spec.q)
    return spec, emission, cls, est


def stack_for(spec, est, b_bar=50.0):
    sol = solve_dare(est.a_hat, est.b_hat, est.q_hat, spec.r)
    return DecoderStack(a_hat=est.a_hat, b_hat=est.b_hat, k_gain=sol.k, b_bar=b_bar)


class TestNoiseShaping:
    def test_scalar_direct(self):
        shap = build_noise_shaping([[0.0]], [[1.0]], [[1.0]], sigma=1.0, kappa=1)
        assert abs(shap.m_k[0][0, 0] - 0.5) < 1e-12

    def test_singular_inverse_raises(self):
        # estimates of a stable2x1-lift5 run with n_id = 3: sigma_w_hat is positive
        # definite, but of order 1e-19, and the solve at k = 1 finds it singular
        a = [[-0.21282142866637849, -3.4828912154481992],
             [0.26240121500141844, 1.2725288646717661]]
        b = [[1.4135692388767893], [0.097963346865993756]]
        sigma_w = [[7.1549915424857018e-19, -2.8242940237257592e-19],
                   [-2.8242940237257592e-19, 1.1183751126070428e-19]]
        with pytest.raises(NumericalError, match="shaping inverse at k = 1 is singular"):
            build_noise_shaping(a, b, sigma_w, sigma=0.3, kappa=2)

    def test_scalar_limit(self):
        shap = build_noise_shaping([[0.0]], [[1.0]], [[1.0]], sigma=1e-4, kappa=1)
        assert abs(shap.m_k[0][0, 0] / 1e-8 - shap.m_bar[0, 0]) < 1e-3
        assert abs(shap.lambda_m - 1.0) < 1e-12

    def test_block_assembly(self):
        a = np.array([[0.5]])
        shap = build_noise_shaping(a, [[1.0]], [[1.0]], sigma=0.7, kappa=2)
        blocks = [shap.m_k[0], shap.m_k[1] @ a]
        assert np.array_equal(shap.big_m, np.vstack(blocks))
        # M_2 against an independent hand computation
        c2 = np.array([[0.5, 1.0]])
        w2 = np.array([[1.0 + 0.25]])
        m2 = c2.T @ np.linalg.inv(c2 @ c2.T + w2 / 0.49)
        assert np.allclose(shap.m_k[1], m2, atol=1e-12)

    def test_m_k_from_controllability_matrices(self):
        # kappa = 3 reaches C_3 = [A^2 B | A B | B], here built from the shaping's powers
        spec, _, _ = make_benchmark_instance("stable2x1-lift5")
        sigma = 0.4
        shap = build_noise_shaping(spec.a, spec.b, spec.sigma_w, sigma=sigma, kappa=3)
        w_k = np.zeros_like(spec.sigma_w)
        for k in range(1, 4):
            a_km1 = np.linalg.matrix_power(spec.a, k - 1)
            w_k = w_k + a_km1 @ spec.sigma_w @ a_km1.T
            c_k = controllability_matrix(spec.a, spec.b, k)
            expected = np.linalg.solve(c_k @ c_k.T + w_k / sigma**2, c_k).T
            assert shap.m_k[k - 1].shape == (k * spec.d_u, spec.d_x)
            assert shap.m_k[k - 1].tobytes() == expected.tobytes()

    def test_singular_noise_rejected(self):
        from latentlqr.errors import NumericalError

        with pytest.raises(NumericalError):
            build_noise_shaping([[0.5]], [[1.0]], [[0.0]], sigma=1.0, kappa=1)


class TestCollectOnPolicy:
    def test_t0_is_pure_gaussian(self):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est)
        cfg = Phase3Config(n_op=50, sigma=0.5, t_horizon=1, kappa=1, r_op=8.0)
        (half1, half2), _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=3)
        # f_0 = 0, so the input K f_0 + nu_0 is the injected noise alone
        assert np.array_equal(np.vstack([half1.f_t, half2.f_t]), np.zeros((100, 1)))
        policy = PolicyDef(sigma=0.5, gain=stack.k_gain, decoders=stack)
        full = rollout(spec, emission, policy, horizon=1, n_traj=100, base_seed=3)
        assert np.array_equal(full.inputs[:, 0], full.injected[:, 0])
        assert np.array_equal(np.vstack([half1.injected[:, 0], half2.injected[:, 0]]),
                              full.injected[:, 0])
        assert half1.n_traj == half2.n_traj == 50

    def test_columns_match_full_rollout(self):
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                             q_hat=spec.q)
        stack = stack_for(spec, est)
        for scale in (1.0, 0.9):
            decoder_update(FittedRegressor(candidate_index=0, m=scale * np.eye(spec.d_x),
                                           empirical_loss=0.0, decoder_class=truth_only(cls)),
                           stack)
        t, kappa, n_op = 2, 2, 40
        cfg = Phase3Config(n_op=n_op, sigma=0.3, t_horizon=3, kappa=kappa, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, t, cfg, seed=21)
        policy = PolicyDef(sigma=0.3, gain=stack.k_gain, decoders=stack)
        full = rollout(spec, emission, policy, horizon=t + kappa, n_traj=2 * n_op,
                       base_seed=21)
        values = stack.values_all(full.observations, t)
        assert np.any(values[:, t] != 0.0)
        for half, rows in zip(halves, (slice(0, n_op), slice(n_op, 2 * n_op))):
            assert half.observations.shape == (n_op, kappa + 1, emission.d_y)
            assert half.injected.shape == (n_op, kappa, spec.d_u)
            assert np.array_equal(half.observations, full.observations[rows, t:t + kappa + 1])
            assert np.array_equal(half.injected, full.injected[rows, t:t + kappa])
            assert np.array_equal(half.f_t, values[rows, t])

    def test_deterministic_quiet_run(self):
        spec = SystemSpec(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[0.0]], sigma_0=[[0.0]])
        _, emission, cls = make_benchmark_instance("scalar-identity")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=[[1.0]], q_hat=spec.q)
        stack = stack_for(spec, est)
        policy = PolicyDef(sigma=0.0, gain=stack.k_gain, decoders=stack)
        batch = rollout(spec, emission, policy, horizon=3, n_traj=4, base_seed=0)
        assert np.allclose(batch.states, 0.0)

    def test_injected_covariance(self):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est)
        cfg = Phase3Config(n_op=50_000, sigma=0.4, t_horizon=1, kappa=1, r_op=8.0)
        (half1, half2), _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=4)
        nu = np.vstack([half1.injected[:, 0], half2.injected[:, 0]])
        var = float(np.mean(nu**2))
        assert abs(var - 0.16) <= 0.03 * 0.16


class TestDecoderStack:
    def test_exact_telescoping(self):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est)
        ident = FittedRegressor(candidate_index=0, m=np.eye(1), empirical_loss=0.0,
                                decoder_class=truth_only(cls))
        decoder_update(ident, stack)
        decoder_update(ident, stack)
        batch = rollout(spec, emission, PolicyDef(sigma=1.0),
                        horizon=2, n_traj=6, base_seed=1)
        vals = stack.values_all(batch.observations, 2)
        assert np.allclose(vals[:, 0], 0.0)
        # with h = f_star, A-hat = A and no initial pieces the update telescopes
        # to f(y_1) - A f(y_0), and at t=2 to exactly f(y_2)
        expected1 = batch.states[:, 1] - batch.states[:, 0] @ spec.a.T
        assert np.allclose(vals[:, 1], expected1, atol=1e-10)
        expected2 = batch.states[:, 2] - (batch.states[:, 0] @ spec.a.T @ spec.a.T)
        assert np.allclose(vals[:, 2], expected2, atol=1e-10)

    def test_clip_semantics(self):
        # with h = f_star, A-hat = 0.5 and y_0 = 0 the unclipped f_1 is y_1, of norm 5
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est, b_bar=5.0)
        decoder_update(FittedRegressor(candidate_index=0, m=np.eye(1), empirical_loss=0.0,
                                       decoder_class=truth_only(cls)), stack)
        y0, y1 = np.zeros((2, 1)), np.array([[5.0], [-5.0]])
        _, clipped0, state = stack.step(stack.begin(2), 0, y0)
        assert clipped0 is None  # f_0 = 0 checks no radius
        kept, clipped, _ = stack.step(state, 1, y1)
        assert np.array_equal(kept, y1) and not clipped.any()
        stack.b_bar = 4.0
        zeroed, clipped, _ = stack.step(state, 1, y1)
        assert np.array_equal(zeroed, np.zeros((2, 1)))
        assert clipped.dtype == bool and int(clipped.sum()) == 2
        assert stack.step(state, 2, y1)[1] is None  # beyond the learned depth

    def test_nan_value_raises_and_infinite_value_is_a_clip(self):
        # with h = f_star, A-hat = 0.5 and y_0 = 0, f_1 is y_1: an infinite norm
        # exceeds b_bar, a nan norm is not a clip
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est, b_bar=5.0)
        decoder_update(FittedRegressor(candidate_index=0, m=np.eye(1), empirical_loss=0.0,
                                       decoder_class=truth_only(cls)), stack)
        _, _, state = stack.step(stack.begin(2), 0, np.zeros((2, 1)))
        value, clipped, _ = stack.step(state, 1, np.array([[np.inf], [1.0]]))
        assert clipped.tolist() == [True, False]
        assert np.array_equal(value, [[0.0], [1.0]])
        with pytest.raises(NumericalError, match="decoder value at t=1 is not a number"):
            stack.step(state, 1, np.array([[np.nan], [1.0]]))

    def test_depth_zero_beyond_stack(self):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est)
        batch = rollout(spec, emission, PolicyDef(sigma=1.0),
                        horizon=3, n_traj=2, base_seed=2)
        vals = stack.values_all(batch.observations, 3)
        assert np.allclose(vals, 0.0)


    def test_learning_clip_counts_by_hand(self, monkeypatch):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est, b_bar=1.0)
        decoder_update(FittedRegressor(candidate_index=0, m=np.eye(1), empirical_loss=0.0,
                                       decoder_class=truth_only(cls)), stack)
        n_op, sigma = 500, 0.5
        cfg = Phase3Config(n_op=n_op, sigma=sigma, t_horizon=2, kappa=1, r_op=8.0)
        halves, masks = collect_onpolicy(spec, emission, stack, 1, cfg, seed=31)
        # with h = f_star and f_0 = 0 the unclipped f_1 is x_1 - A x_0 = B nu_0 + w_0,
        # which an open-loop rollout on the same streams reproduces
        ref = rollout(spec, emission, PolicyDef(sigma=sigma), horizon=1,
                      n_traj=2 * n_op, base_seed=31)
        tilde = ref.injected[:, 0] @ spec.b.T + ref.noises[:, 0]
        clipped = np.linalg.norm(tilde, axis=1) > stack.b_bar
        assert 0 < clipped.sum() < 2 * n_op
        # one mask row per on-policy trajectory, in trajectory order; f_0 and
        # f_2 check no radius, so only t = 1 is recorded
        assert list(masks) == [1] and np.array_equal(masks[1], clipped)
        f_1 = np.vstack([half.f_t for half in halves])
        assert np.array_equal(f_1[clipped], np.zeros((int(clipped.sum()), 1)))
        assert np.allclose(f_1[~clipped], tilde[~clipped], atol=1e-12)
        # a rollout run in 7-row chunks records the same mask
        monkeypatch.setattr(system, "CHUNK_ROWS", 7)
        chunked, chunked_masks = collect_onpolicy(spec, emission, stack, 1, cfg, seed=31)
        assert list(chunked_masks) == [1] and np.array_equal(chunked_masks[1], clipped)
        assert np.array_equal(np.vstack([half.f_t for half in chunked]), f_1)


def feature_class(calls: list, scale: float = 1.0) -> DecoderClass:
    """Three two-dimensional candidates that record the rows of each featurization."""
    def counted(f):
        def candidate(y):
            calls.append(y.shape[0])
            return f(y)
        return candidate
    return DecoderClass(candidates=tuple(counted(f) for f in (
        lambda y: scale * y, lambda y: scale * y * y * y, lambda y: np.sin(scale * y))))


def memo_stack(picks, initial, b_bar=3.0):
    """A 2-d stack whose h_t is candidate picks[t][1] of class picks[t][0], with
    initial-state pieces on candidate initial[1] of class initial[0] (or none)."""
    rng = np.random.default_rng(4)

    def reg(cls, idx):
        return FittedRegressor(candidate_index=idx, m=0.7 * rng.standard_normal((2, 2)),
                               empirical_loss=0.0, decoder_class=cls)

    stack = DecoderStack(a_hat=0.6 * rng.standard_normal((2, 2)), b_hat=np.eye(2),
                         k_gain=np.eye(2), b_bar=b_bar)
    for cls, idx in picks:
        decoder_update(reg(cls, idx), stack)
    if initial is not None:
        stack.initial = InitialStatePieces(sigma_cov=np.eye(2), h_ol0=reg(*initial),
                                           gain=rng.standard_normal((2, 2)))
    return stack


class TestFeatureMemo:
    """The stack state carries y_t's features, so a step whose regressor
    shares the previous one's candidate featurizes only the new observation."""

    @pytest.mark.parametrize("initial", [None, "same", "other-candidate", "other-class"])
    def test_steps_equal_the_formula_without_memo(self, initial):
        cls, other = feature_class([]), feature_class([], scale=0.5)
        # hit, miss, hit, then the same index in another class (a miss), hit
        picks = [(cls, 0), (cls, 0), (cls, 1), (cls, 1), (other, 1), (other, 1)]
        init = {None: None, "same": (cls, 0), "other-candidate": (cls, 2),
                "other-class": (other, 0)}[initial]
        stack = memo_stack(picks, init)
        obs = np.random.default_rng(5).standard_normal((300, len(picks) + 2, 2))
        state, value = stack.begin(300), np.zeros((300, 2))
        clipped_rows = 0
        for t in range(len(picks) + 2):
            got, clipped, state = stack.step(state, t, obs[:, t])
            if 1 <= t <= len(picks):
                h = stack.residual_regressors[t - 1]
                if t == 1 and stack.initial is not None:
                    carry = rowmap(stack.initial.h_ol0.predict(obs[:, 0]), stack.initial.gain)
                else:
                    carry = rowmap(value, stack.a_hat)
                value = h.predict(obs[:, t]) - rowmap(h.predict(obs[:, t - 1]), stack.a_hat) + carry
                mask = ~(np.linalg.norm(value, axis=1) <= stack.b_bar)
                value[mask] = 0.0
                assert np.array_equal(clipped, mask), t
                clipped_rows += int(mask.sum())
            else:
                value = np.zeros((300, 2))
                assert clipped is None
            assert got.tobytes() == value.tobytes(), t
        assert 0 < clipped_rows < 300 * len(picks)

    @pytest.mark.parametrize("with_initial", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_a_run_of_one_candidate_featurizes_each_observation_once(self, k, with_initial):
        calls = []
        cls = feature_class(calls)
        stack = memo_stack([(cls, 1)] * k, (cls, 1) if with_initial else None)
        obs = np.random.default_rng(6).standard_normal((50, k + 2, 2))
        stack.values_all(obs, k + 1)
        # y_0..y_k once each; without the memo every step featurizes two
        # observations, and step 1 featurizes y_0 once more for h_ol0
        assert calls == [50] * (k + 1)


class TestResidualRegression:
    def test_kappa1_stack_equals_single_block(self):
        spec, emission, cls, est = scalar_pieces()
        stack = stack_for(spec, est)
        shap = build_noise_shaping(est.a_hat, est.b_hat, est.sigma_w_hat, sigma=1.0, kappa=1)
        assert np.array_equal(shap.big_m, shap.m_k[0])
        cfg = Phase3Config(n_op=5_000, sigma=1.0, t_horizon=1, kappa=1, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=5)
        first, h_t = fit_residual_regressors(halves, stack, shap, cfg, truth_only(cls))
        assert len(first) == 1
        # the stacked second stage refits the same increment map
        assert abs(h_t.m[0, 0] - first[0].m[0, 0]) <= 0.15

    def test_scalar_bayes_oracle(self):
        # nu_t on y_{t+1}: population map 0.5 x_{t+1} when A=0, B=1, Sw=1, sigma=1
        spec, emission, cls, est = scalar_pieces(a=0.0)
        stack = stack_for(spec, est)
        shap = build_noise_shaping(est.a_hat, est.b_hat, est.sigma_w_hat, sigma=1.0, kappa=1)
        cfg = Phase3Config(n_op=100_000, sigma=1.0, t_horizon=1, kappa=1, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=6)
        first, _ = fit_residual_regressors(halves, stack, shap, cfg, truth_only(cls))
        # fitted composite map on y_{t+1} is M_1 * m; with A-hat=0 the y_t term drops
        composite = shap.m_k[0][0, 0] * first[0].m[0, 0]
        assert abs(composite - 0.5) <= 0.05

    def test_kappa2_second_stage_fits_the_stacked_half2_predictions(self):
        # stable2x1-lift5 has kappa = 2; t = 1, so the roll-in values f_t are not zero
        spec, emission, cls = make_benchmark_instance("stable2x1-lift5")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                             q_hat=spec.q)
        stack = stack_for(spec, est)
        shap = shaping_for(est, sigma=0.5, kappa=2)
        for k in range(3):
            assert shap.a_powers[k].tobytes() == np.linalg.matrix_power(est.a_hat, k).tobytes()
        cfg = Phase3Config(n_op=400, sigma=0.5, t_horizon=2, kappa=2, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=12)
        decoder_update(fit_residual_regressors(halves, stack, shap, cfg, cls)[1], stack)
        (half1, half2), _ = collect_onpolicy(spec, emission, stack, 1, cfg, seed=13)
        first, h_t = fit_residual_regressors((half1, half2), stack, shap, cfg, cls)
        assert len(first) == 2 and np.any(half2.f_t != 0)

        klass = StructuredClass(base=cls, output_dim=2, radius=cfg.r_op)
        bk = est.b_hat @ stack.k_gain
        blocks = []
        for k, reg in enumerate(first, start=1):
            m_k, a_k, a_km1 = shap.m_k[k - 1], shap.a_powers[k], shap.a_powers[k - 1]
            blocks.append((reg.predict(half2.observations[:, k])
                           - reg.predict(half2.observations[:, 0]) @ a_k.T
                           - half2.f_t @ (a_km1 @ bk).T) @ m_k.T)
        want = erm_fit_increment(klass, obs_now=half2.observations[:, 0],
                                 obs_next=half2.observations[:, 1], left=shap.big_m,
                                 shift=est.a_hat, targets=np.hstack(blocks),
                                 offsets=-(half2.f_t @ (shap.big_m @ bk).T))
        assert h_t.candidate_index == want.candidate_index
        assert h_t.m.tobytes() == want.m.tobytes()
        assert h_t.all_losses == want.all_losses


class TestInitialState:
    def test_covariance_guard(self):
        # a zero noise regressor plus negligible exploration collapses the
        # fitted covariance, which must error instead of inverting
        spec, emission, cls, est = scalar_pieces(a=0.0)
        from latentlqr.errors import IllConditionedCovarianceError

        cfg = Phase3Config(n_op=500, sigma=1e-6, t_horizon=1, kappa=1, r_op=8.0)
        zero_reg = FittedRegressor(candidate_index=0, m=np.zeros((1, 1)), empirical_loss=0.0,
                                   decoder_class=truth_only(cls))
        cols = rollout_columns(spec, emission, PolicyDef(sigma=1e-6),
                               horizon=1, n_traj=1000, base_seed=8, obs=(0, 1),
                               injected=(0,))
        with pytest.raises(IllConditionedCovarianceError):
            learn_initial_state(cols["obs"][0], cols["obs"][1], cols["injected"][0], zero_reg,
                                est, cfg, truth_only(cls))

    def test_zero_dynamics_target_is_zero(self):
        spec, emission, cls, est = scalar_pieces(a=0.0)
        stack = stack_for(spec, est)
        cfg = Phase3Config(n_op=20_000, sigma=1.0, t_horizon=1, kappa=1, r_op=8.0)
        halves, _ = collect_onpolicy(spec, emission, stack, 0, cfg, seed=9)
        _, h0 = fit_residual_regressors(halves, stack, shaping_for(est), cfg, truth_only(cls))
        cols = rollout_columns(spec, emission, PolicyDef(sigma=1.0),
                               horizon=1, n_traj=40_000, base_seed=10, obs=(0, 1),
                               injected=(0,))
        pieces = learn_initial_state(cols["obs"][0], cols["obs"][1], cols["injected"][0], h0,
                                     est, cfg, truth_only(cls))
        fa0 = pieces.f_a0(cols["obs"][0])
        assert float(np.mean(fa0**2)) <= 0.05


class TestSharedDerivations:
    """The gain and the initial-state gain that load_policy rebuilds from saved files."""

    def test_dare_gives_the_same_bits_in_either_memory_layout(self):
        # estimates of a stable2x1-lift5 run (desk sizes, seed 2); phase 2 gives a_hat
        # in Fortran order, and the C-ordered copy a loader reads rounds K apart in
        # its last bit unless the function fixes the layout
        a = np.array([[0.57625197100150338, -0.83780250267946887],
                      [0.10921198821221206, 0.62038185756893438]])
        est = dict(b_hat=[[0.3943760028399691], [-0.019042855715578438]],
                   sigma_w_hat=np.eye(2), q_hat=[[7.9182400216001856, 1.5075377851667182],
                                                 [1.5075377851667182, 58.946531946677617]])
        gains = [phase3.certainty_equivalent_dare(SysIdEstimates(a_hat=layout(a), **est),
                                                  np.eye(1)).k
                 for layout in (np.ascontiguousarray, np.asfortranarray)]
        assert gains[0].tobytes() == gains[1].tobytes()

    def test_initial_gain_guards_the_covariance(self):
        sigma_w = np.array([[2.0, 0.5], [0.5, 1.0]])
        gain = phase3.initial_gain(sigma_w, np.diag([4.0, 0.5]))
        assert np.allclose(gain, sigma_w @ np.diag([0.25, 2.0]), rtol=0, atol=1e-15)
        with pytest.raises(IllConditionedCovarianceError, match="below the 1e-08 guard"):
            phase3.initial_gain(sigma_w, np.diag([4.0, 1e-9]))


def shaping_for(est, sigma=1.0, kappa=1):
    return build_noise_shaping(est.a_hat, est.b_hat, est.sigma_w_hat, sigma=sigma, kappa=kappa)


class TestComputePolicy:
    def test_sigma_zero_rejected(self):
        with pytest.raises(ValidationError):
            Phase3Config(n_op=100, sigma=0.0, t_horizon=1, kappa=1, r_op=8.0)

    def test_n_init_defaults_to_n_op(self):
        assert Phase3Config(n_op=7, sigma=0.3, t_horizon=1, kappa=1, r_op=8.0).n_init == 7
        cfg = Phase3Config(n_op=7, sigma=0.3, t_horizon=1, kappa=1, r_op=8.0, n_init=3)
        assert cfg.n_init == 3

    def test_stack_length(self):
        spec, emission, cls, est = scalar_pieces()
        cfg = Phase3Config(n_op=400, sigma=0.3, t_horizon=3, kappa=1, r_op=8.0)
        learned = compute_policy(spec, emission, est, truth_only(cls), cfg, seed=11)
        assert learned.stack.depth == 4  # decoders f_0..f_T with T = 3
        assert learned.t_horizon == 3
        assert learned.trajectories_used == 2 * 400 * 3 + 2 * 400

    def test_learning_clip_counts_sum_the_collects(self, monkeypatch):
        # a clip radius this small clips at several decoder steps; the learned
        # policy's counts are the sums of every collect's recorded masks
        spec, emission, cls, est = scalar_pieces()
        cfg = Phase3Config(n_op=300, sigma=0.5, t_horizon=3, kappa=1, r_op=8.0, b_bar=1.0)
        recorded = []

        def recording(*args):
            halves, masks = collect(*args)
            recorded.append(masks)
            return halves, masks

        collect = phase3.collect_onpolicy
        monkeypatch.setattr(phase3, "collect_onpolicy", recording)
        learned = compute_policy(spec, emission, est, truth_only(cls), cfg, seed=11)
        assert [sorted(masks) for masks in recorded] == [[], [1], [1, 2]]
        expected = {t: (sum(int(m[t].sum()) for m in recorded if t in m),
                        sum(m[t].size for m in recorded if t in m)) for t in (1, 2)}
        assert learned.learning_clip_counts == expected
        assert expected[1][1] == 2 * 2 * 300 and all(c > 0 for c, _ in expected.values())

    def test_default_clip_radius_formula(self):
        assert default_clip_radius(1, 1, 5000) == pytest.approx(20.0 * np.log(5000.0))

    def test_error_tagged_with_stage(self):
        spec, emission, cls, est = scalar_pieces()
        bad = SysIdEstimates(a_hat=est.a_hat, b_hat=est.b_hat,
                             sigma_w_hat=[[0.0]], q_hat=est.q_hat)
        cfg = Phase3Config(n_op=100, sigma=0.3, t_horizon=1, kappa=1, r_op=8.0)
        from latentlqr.errors import NumericalError

        with pytest.raises(NumericalError):
            compute_policy(spec, emission, bad, truth_only(cls), cfg, seed=12)

    def test_exact_plugins_near_optimal_at_t1(self):
        # with exact identification the only suboptimality left is the
        # injected exploration noise plus decoder estimation error
        from latentlqr import estimate_gap, optimal_policy

        spec, emission, cls = make_benchmark_instance("scalar-identity")
        est = SysIdEstimates(a_hat=spec.a, b_hat=spec.b, sigma_w_hat=spec.sigma_w,
                             q_hat=spec.q)
        cfg = Phase3Config(n_op=20_000, sigma=0.1, t_horizon=1, kappa=1, r_op=8.0)
        learned = compute_policy(spec, emission, est, truth_only(cls), cfg, seed=15)
        gap, _ = estimate_gap(spec, emission, learned.policy(),
                              optimal_policy(spec, emission), t_horizon=1,
                              n_eval=20_000, seed=16)
        assert gap <= 0.1

    def test_no_compounding_error_growth(self):
        # with true plug-ins the per-time decoder error must not grow
        # faster than linearly in t
        spec, emission, cls, est = scalar_pieces()
        cfg = Phase3Config(n_op=5_000, sigma=1.0, t_horizon=5, kappa=1, r_op=8.0)
        learned = compute_policy(spec, emission, est, truth_only(cls), cfg, seed=13)
        batch = rollout(spec, emission, learned.policy(), horizon=5, n_traj=20_000,
                        base_seed=14)
        vals = learned.stack.values_all(batch.observations, 5)
        errors = []
        for t in range(1, 6):
            truth = emission.decode_batch(batch.observations[:, t])
            errors.append(float(np.mean(np.sum((vals[:, t] - truth) ** 2, axis=1))))
        floor = 1e-4
        base = max(errors[0], floor)
        for t, err in enumerate(errors, start=1):
            assert err <= 2.0 * t * base + floor
