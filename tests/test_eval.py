"""Evaluation harness: cost estimation, alignment, pipeline reports."""
import dataclasses
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentlqr import (ExperimentConfig, PolicyDef, SystemSpec, ValidationError,
                       align_decoder, estimate_cost, estimate_gap,
                       make_benchmark_instance, optimal_policy, parameter_bounds, parse_config,
                       rollout, rollout_columns, run_pipeline, solve_dare, solve_lyapunov)
from latentlqr import pipeline, system
from latentlqr import rng as rngmod
from latentlqr.benchmarks import CATALOG
from latentlqr.evaluate import estimate_gap, mean_stderr, trajectory_costs
from latentlqr.system import CurrentObsDecoder

from helpers import closed_form_step_cost, constant_policy


class TestEstimateCost:
    def test_deterministic_constant_policy(self):
        spec = SystemSpec(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]],
                          sigma_w=[[0.0]], sigma_0=[[0.0]])
        _, emission, _ = make_benchmark_instance("scalar-identity")
        policy = constant_policy(1.0)
        mean, stderr = estimate_cost(spec, emission, policy, t_horizon=3, n_eval=10, seed=0)
        assert mean == pytest.approx(2.0)
        assert stderr == pytest.approx(0.0)

    def test_optimal_policy_no_noise(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        quiet = SystemSpec(a=spec.a, b=spec.b, q=spec.q, r=spec.r,
                           sigma_w=[[0.0]], sigma_0=[[0.0]])
        mean, _ = estimate_cost(quiet, emission, optimal_policy(spec, emission),
                                t_horizon=5, n_eval=5, seed=1)
        assert mean == pytest.approx(0.0)

    def test_stationary_cost_identity(self):
        # long-run per-step cost of the optimal policy approaches tr(P Sigma_w)
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
        a_cl = spec.a + spec.b @ sol.k
        sigma_stationary = solve_lyapunov(a_cl, spec.sigma_w)
        stationary = SystemSpec(a=spec.a, b=spec.b, q=spec.q, r=spec.r,
                                sigma_w=spec.sigma_w, sigma_0=sigma_stationary)
        target = float(np.trace(sol.p @ spec.sigma_w))
        mean, _ = estimate_cost(stationary, emission, optimal_policy(spec, emission),
                                t_horizon=200, n_eval=2000, seed=2)
        assert abs(mean - target) <= 0.03 * target

    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_the_closed_form_cost(self, name):
        spec, emission, _ = make_benchmark_instance(name)
        k = solve_dare(spec.a, spec.b, spec.q, spec.r).k
        zero = np.zeros((spec.d_u, spec.d_x))
        truth = CurrentObsDecoder(emission.decode_batch)
        for policy, gain, sigma in ((PolicyDef(gain=k, decoders=truth), k, 0.0),
                                    (PolicyDef(sigma=0.15, gain=k, decoders=truth), k, 0.15),
                                    (PolicyDef(), zero, 0.0)):
            [(costs, _, _)] = trajectory_costs(spec, emission, (policy,), t_horizon=10,
                                               n_eval=50_000, seed=4)
            mean, stderr = mean_stderr(costs)
            assert abs(mean - closed_form_step_cost(spec, gain, sigma, 10)) <= 4 * stderr

    def test_n_eval_too_small(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        with pytest.raises(ValidationError):
            estimate_cost(spec, emission, PolicyDef(), 3, 1, 0)


class TestPairedGap:
    def test_policy_against_itself_is_zero(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        policy = optimal_policy(spec, emission)
        gap, stderr = estimate_gap(spec, emission, policy, policy, t_horizon=10,
                                   n_eval=50, seed=3)
        assert gap == 0.0
        assert stderr == 0.0


class TestAlignDecoder:
    def _obs(self, n=500):
        rng = np.random.default_rng(4)
        return rng.standard_normal((n, 2))

    def test_identity(self):
        f = lambda y: np.atleast_2d(y)
        res = align_decoder(f, f, self._obs())
        assert np.allclose(res.s, np.eye(2), atol=1e-9)
        assert res.residual < 1e-18

    def test_doubling(self):
        f = lambda y: np.atleast_2d(y)
        g = lambda y: 2.0 * np.atleast_2d(y)
        res = align_decoder(g, f, self._obs())
        assert np.allclose(res.s, 2.0 * np.eye(2), atol=1e-9)
        assert res.residual < 1e-18

    def test_noisy_residual_level(self):
        rng = np.random.default_rng(5)
        obs = rng.standard_normal((10_000, 2))
        noise = 0.1 * rng.standard_normal((10_000, 2))
        f = lambda y: np.atleast_2d(y)

        captured = {}

        def g(y):
            y = np.atleast_2d(y)
            key = y.shape
            if key not in captured:
                captured[key] = noise[: y.shape[0]]
            return y + captured[key]

        res = align_decoder(g, f, obs)
        # per-sample noise of variance 0.01 per coordinate: residual ~ 0.02
        assert abs(res.residual - 0.02) <= 0.2 * 0.02

    def test_first_order_optimality(self):
        rng = np.random.default_rng(6)
        obs = rng.standard_normal((2_000, 2))
        noise = 0.05 * rng.standard_normal((2_000, 2))
        truth = lambda y: np.atleast_2d(y)
        learned = lambda y: np.atleast_2d(y) @ np.array([[1.1, 0.2], [0.0, 0.9]]).T + noise[: len(y)]
        res = align_decoder(learned, truth, obs)
        f_hat = learned(obs)
        f_true = truth(obs)

        def mse(s):
            return float(np.mean(np.sum((f_hat - f_true @ s.T) ** 2, axis=1)))

        for i in range(2):
            for j in range(2):
                for delta in (0.01, -0.01):
                    bumped = res.s.copy()
                    bumped[i, j] += delta
                    assert mse(bumped) >= res.residual - 1e-12

    def test_degenerate_covariance(self):
        truth = lambda y: np.zeros((np.atleast_2d(y).shape[0], 2))
        with pytest.raises(ValidationError):
            align_decoder(truth, truth, self._obs())


CONFIG_KEYS = sorted(pipeline._INT_KEYS | pipeline._FLOAT_KEYS | pipeline._STR_KEYS
                     | pipeline._BOOL_KEYS) + ["bogus"]
TRICKY_VALUES = ["0", "1", "-1", "2", "0.5", "1e4", "1e100", "1e400", "-1e400", "nan",
                 "-nan", "inf", "-inf", "true", "false", "TRUE", "", "abc", "=", "#",
                 "1_000", "0x10", "9" * 5000, "scalar-identity"]


class TestConfigParsing:
    def test_roundtrip(self):
        text = """
        # comment
        instance = scalar-identity
        n_id = 1000
        n_op = 500
        t_horizon = 4
        n_eval = 100
        seed = 7
        sigma = 0.2
        """
        cfg = parse_config(text)
        assert cfg.instance == "scalar-identity"
        assert cfg.n_id == 1000 and cfg.seed == 7 and cfg.sigma == 0.2

    def test_unknown_key_fails_closed(self):
        with pytest.raises(ValidationError):
            parse_config("instance = scalar-identity\nwat = 3\n")

    def test_missing_required(self):
        with pytest.raises(ValidationError):
            parse_config("instance = scalar-identity\n")

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS),
                                    st.one_of(st.sampled_from(TRICKY_VALUES),
                                              st.text(max_size=12))),
                          max_size=12))
    def test_raises_nothing_but_validation_error(self, lines):
        text = "".join(f"{key} = {value}\n" for key, value in lines)
        try:
            parse_config(text)
        except ValidationError:
            pass

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="scalar-identity", n_id=0, n_op=10, t_horizon=2,
                             n_eval=10, seed=0, sigma=0.5)

    def test_sigma_or_epsilon_required(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="scalar-identity", n_id=10, n_op=10, t_horizon=2,
                             n_eval=10, seed=0)

    @pytest.mark.parametrize("key", ["epsilon", "b_bar", "psi_star", "alpha_star",
                                     "gamma_star", "r_id", "r_op"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_rejected(self, key, value):
        base = dict(instance="scalar-identity", n_id=10, n_op=10, t_horizon=2,
                    n_eval=10, seed=0, sigma=0.5)
        if key == "epsilon":
            del base["sigma"]
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig(**base, **{key: value})


class TestPipeline:
    def _config(self, seed=5):
        return ExperimentConfig(instance="scalar-identity", n_id=1500, n_op=600,
                                t_horizon=3, n_eval=400, seed=seed, sigma=0.15,
                                kappa0_override=5)

    def test_smoke_and_gap_sanity(self):
        result = run_pipeline(self._config())
        rep = result.report
        assert rep.gap < rep.gap_zero
        assert rep.j_optimal > 0
        assert len(rep.decoder_errors) == 3

    def test_report_schema_golden(self, tmp_path):
        result = run_pipeline(self._config(), outdir=tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        names = [line.split(",")[0] for line in lines]
        assert names == [
            "metric", "j_learned", "j_learned_stderr", "j_optimal", "j_optimal_stderr",
            "gap", "gap_stderr", "j_zero", "j_zero_stderr", "gap_zero",
            "decoder_align_residual", "decoder_align_sigma_min",
            "clip_fraction", "clip_events",
            "trajectories_phase12", "trajectories_phase3", "trajectories_eval",
            "kappa0", "kappa1"]
        decoder_lines = (tmp_path / "decoder_errors.csv").read_text().strip().splitlines()
        assert decoder_lines[0] == "t,mse"
        assert len(decoder_lines) == 4

    def test_trajectories_eval_counts_simulated(self, monkeypatch):
        import latentlqr.system as system

        simulated = []
        drive = system._drive

        def counting_drive(spec, emission, policies, horizon, n, *rest):
            simulated.append(n * len(policies))
            return drive(spec, emission, policies, horizon, n, *rest)

        monkeypatch.setattr(system, "_drive", counting_drive)
        rep = run_pipeline(self._config()).report
        # one cost pass of three policies on n_eval = 400 rows, 2000
        # alignment rollouts and min(metric_rollouts = 2000, n_eval)
        # decoder-error rollouts
        assert rep.trajectories_eval == 3 * 400 + 2000 + 400
        assert sum(simulated) == (rep.trajectories_phase12 + rep.trajectories_phase3
                                  + rep.trajectories_eval)

    def test_phase1_columns_are_released(self, monkeypatch):
        """Batches 1 and 2 are let go once the coarse decoder is fit, batch 3
        once system identification returns."""
        refs = []
        alive = {}
        collect, sysid, policy = (pipeline.collect_id_data, pipeline.run_sysid,
                                  pipeline.compute_policy)

        def collecting(*args):
            data = collect(*args)
            for batch in (data.batch1, data.batch2, data.batch3):
                refs.append([weakref.ref(column) for column in vars(batch).values()
                             if column is not None])
            return data

        def count_alive(stage, fn):
            def wrapped(*args):
                alive[stage] = [sum(ref() is not None for ref in batch) for batch in refs]
                return fn(*args)
            return wrapped

        monkeypatch.setattr(pipeline, "collect_id_data", collecting)
        monkeypatch.setattr(pipeline, "run_sysid", count_alive("sysid", sysid))
        monkeypatch.setattr(pipeline, "compute_policy", count_alive("policy", policy))
        run_pipeline(self._config(), stop_after="phase3")
        assert alive == {"sysid": [0, 0, 4], "policy": [0, 0, 0]}
        assert [len(batch) for batch in refs] == [2, 1, 4]

    def test_value_stability_witness_runs(self):
        config = ExperimentConfig(instance="scalar-identity", n_id=1500, n_op=600,
                                  t_horizon=3, n_eval=400, seed=5, sigma=0.15,
                                  stability_witness="value")
        rep = run_pipeline(config).report
        assert np.isfinite(rep.gap) and rep.gap < rep.gap_zero
        # both witnesses give scalar-identity the same bounds, hence the same run
        lyapunov = dataclasses.replace(config, stability_witness="lyapunov")
        assert rep.rows() == run_pipeline(lyapunov).report.rows()

    def test_stop_after(self, tmp_path):
        config = self._config()
        full = run_pipeline(config)
        for stage, present in (("phase1", 1), ("phase2", 2), ("phase3", 3)):
            result = run_pipeline(config, outdir=tmp_path / stage, stop_after=stage)
            fields = (result.phase1_out, result.estimates, result.learned, result.report)
            assert all(f is not None for f in fields[:present])
            assert all(f is None for f in fields[present:])
            assert not (tmp_path / stage / "report.csv").exists()
        assert np.array_equal(result.learned.stack.a_hat, full.learned.stack.a_hat)
        assert full.report.s_id.shape == (1, 1)
        with pytest.raises(ValidationError, match="stop_after"):
            run_pipeline(config, stop_after="phase4")

    def test_evaluate_policy_again_gives_the_same_report(self):
        # a clip radius this small clips some decoder steps; a second
        # evaluation of the same policy must not pool the first one's clips
        from latentlqr import evaluate_policy

        config = ExperimentConfig(instance="scalar-identity", n_id=1200, n_op=500,
                                  t_horizon=3, n_eval=400, seed=3, sigma=0.3,
                                  kappa0_override=4, b_bar=1.0)
        result = run_pipeline(config)
        assert result.report.clip_events > 0
        spec, emission, _ = make_benchmark_instance(config.instance)
        again = evaluate_policy(config, spec, emission, result.learned, result.phase1_out)
        assert again.rows() == result.report.rows()

    def test_artifacts_written(self, tmp_path):
        run_pipeline(self._config(), outdir=tmp_path)
        for rel in ("report.csv", "decoder_errors.csv", "phase1/h_id.csv",
                    "phase1/v_id.csv", "sysid/a_hat.csv", "policy/init_sigma_cov.csv",
                    "policy/h_0.csv", "policy/init_h_ol1.csv", "policy/meta.csv"):
            assert (tmp_path / rel).exists(), rel

    def test_export_trajectories(self, tmp_path):
        config = dataclasses.replace(self._config(), export_trajectories=True)
        result = run_pipeline(config, outdir=tmp_path)
        lines = (tmp_path / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "traj,t,x_0,y_0,u_0,c"
        n, t_h = min(50, config.n_eval), config.t_horizon
        assert len(lines) == 1 + n * (t_h + 1)
        # the learned policy, rolled out again on the eval seed
        spec, emission, _ = make_benchmark_instance(config.instance)
        batch = rollout(spec, emission, result.learned.policy(), horizon=t_h, n_traj=n,
                        base_seed=rngmod.derive_seed(config.seed, rngmod.TAG_EVAL))
        for line in lines[1:]:
            i, t, x, y, u, c = line.split(",")
            i, t = int(i), int(t)
            assert [float(x), float(y), float(u)] == [batch.states[i, t, 0],
                                                      batch.observations[i, t, 0],
                                                      batch.inputs[i, t, 0]]
            assert (c == "") if t == 0 else (float(c) == batch.costs[i, t])
        assert {int(line.split(",")[0]) for line in lines[1:]} == set(range(n))

    @pytest.mark.parametrize("name", CATALOG)
    def test_cost_scale_equivariance(self, monkeypatch, name):
        """Doubling Q and R under fixed bounds doubles q_hat and every cost
        bitwise and leaves the dynamics estimates and the gain as they are."""
        spec, emission, decoder_class = make_benchmark_instance(name)
        bounds = parameter_bounds(spec)  # read off the unscaled Q and R, then held
        config = ExperimentConfig(instance=name, n_id=4000, n_op=1000, t_horizon=4,
                                  n_eval=400, seed=3, sigma=0.3, kappa=bounds.kappa,
                                  psi_star=bounds.psi_star, alpha_star=bounds.alpha_star,
                                  gamma_star=bounds.gamma_star)
        runs = []
        for scaled in (spec, dataclasses.replace(spec, q=2 * spec.q, r=2 * spec.r)):
            monkeypatch.setattr(pipeline, "make_benchmark_instance",
                                lambda _, scaled=scaled: (scaled, emission, decoder_class))
            result = run_pipeline(config, stop_after="phase3")
            policies = (result.learned.policy(), optimal_policy(scaled, emission), PolicyDef())
            costs = [c for c, _, _ in trajectory_costs(scaled, emission, policies,
                                                       config.t_horizon, 1000, seed=11)]
            runs.append((result.estimates, result.learned.stack.k_gain, costs))
        (est, k_gain, costs), (est2, k_gain2, costs2) = runs
        assert bitwise(est2.q_hat, 2 * est.q_hat)
        for a, b in ((est.a_hat, est2.a_hat), (est.b_hat, est2.b_hat), (k_gain, k_gain2)):
            assert bitwise(a, b)
        for c, c2 in zip(costs, costs2):
            assert bitwise(c2, 2 * c)

    def test_partial_artifacts_retained_on_failure(self, tmp_path):
        # negligible exploration trips the initial-state covariance guard in
        # phase 3; the phase 1 and 2 artifacts must survive with stage context
        from latentlqr.errors import IllConditionedCovarianceError

        config = ExperimentConfig(instance="scalar-identity", n_id=1200, n_op=300,
                                  t_horizon=2, n_eval=100, seed=6, sigma=1e-6,
                                  kappa0_override=4)
        with pytest.raises(IllConditionedCovarianceError) as excinfo:
            run_pipeline(config, outdir=tmp_path)
        assert "stage=phase3" in str(excinfo.value)
        assert (tmp_path / "phase1" / "h_id.csv").exists()
        assert (tmp_path / "sysid" / "a_hat.csv").exists()
        assert not (tmp_path / "report.csv").exists()


class TestDecoderErrors:
    @pytest.mark.parametrize("name", ["di-cubic-lift", "stable2x1-lift5"])
    def test_match_values_all_replay(self, name):
        # each step's value comes from the rollout that produced it; the
        # reference replays the stack over a full rollout's observations.
        # A tight clip radius makes some steps clip.
        from latentlqr import (DecoderStack, FittedRegressor, LearnedPolicy,
                               decoder_errors_by_time, decoder_update, rollout,
                               rollout_columns)

        from helpers import truth_only

        spec, emission, cls = make_benchmark_instance(name)
        sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
        stack = DecoderStack(a_hat=spec.a, b_hat=spec.b, k_gain=sol.k, b_bar=3.0)
        for scale in (1.0, 0.9, 1.1):
            decoder_update(FittedRegressor(candidate_index=0, m=scale * np.eye(spec.d_x),
                                           empirical_loss=0.0, decoder_class=truth_only(cls)),
                           stack)
        learned = LearnedPolicy(stack=stack, sigma=0.3, trajectories_used=0)
        s_id = np.random.default_rng(8).standard_normal((spec.d_x, spec.d_x))
        errors = decoder_errors_by_time(spec, emission, learned, s_id, 500, seed=17)
        masks = rollout_columns(spec, emission, learned.policy(), horizon=3, n_traj=500,
                                base_seed=17, clipped=(1, 2, 3))["clipped"]
        assert sum(int(m.sum()) for m in masks.values()) > 0

        batch = rollout(spec, emission, learned.policy(), horizon=3, n_traj=500, base_seed=17)
        values = stack.values_all(batch.observations, 3)
        expected = [np.mean(np.sum((values[:, t] - emission.decode_batch(
            batch.observations[:, t]) @ s_id.T) ** 2, axis=1)) for t in (1, 2, 3)]
        assert np.array_equal(errors, expected)


@pytest.fixture(scope="class")
def clipping_run():
    """A scalar run whose clip radius b_bar = 1 clips some decoder steps."""
    config = ExperimentConfig(instance="scalar-identity", n_id=1200, n_op=500, t_horizon=3,
                              n_eval=400, seed=3, eval_seed=77, sigma=0.3,
                              kappa0_override=4, b_bar=1.0)
    return config, run_pipeline(config)


def snapshot(obj) -> str:
    """Every attribute of obj, with arrays printed in full and bit-exact."""
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        return repr(vars(obj))


class TestPureDecoders:
    def test_rollouts_leave_the_stack_unchanged(self, clipping_run):
        config, result = clipping_run
        learned = result.learned
        spec, emission, _ = make_benchmark_instance(config.instance)
        before = snapshot(learned.stack)
        for policy in (learned.policy(), learned.greedy_policy()):
            rollout(spec, emission, policy, horizon=config.t_horizon, n_traj=300, base_seed=9)
        assert snapshot(learned.stack) == before

    def test_report_counts_the_cost_pass_masks(self, clipping_run):
        config, result = clipping_run
        spec, emission, _ = make_benchmark_instance(config.instance)
        times = tuple(range(1, config.t_horizon + 1))
        cols = rollout_columns(spec, emission, result.learned.policy(),
                               horizon=config.t_horizon, n_traj=config.n_eval,
                               base_seed=config.eval_seed, decoded=times, clipped=times)
        masks = cols["clipped"]
        assert sorted(masks) == list(times)
        by_hand = sum(int(masks[t].sum()) for t in times)
        assert 0 < by_hand == result.report.clip_events
        assert result.report.clip_fraction == by_hand / (len(times) * config.n_eval)
        for t in times:
            assert np.all(cols["decoded"][t][masks[t]] == 0.0)

    def test_concurrent_rollouts_match_a_serial_one(self, clipping_run, monkeypatch):
        config, result = clipping_run
        spec, emission, _ = make_benchmark_instance(config.instance)
        policy = result.learned.policy()
        times = tuple(range(config.t_horizon + 1))
        # 64-row chunks and a short switch interval, so the threads step the
        # shared stack many times each and interleave between steps
        monkeypatch.setattr(system, "CHUNK_ROWS", 64)

        def columns():
            return rollout_columns(spec, emission, policy, horizon=config.t_horizon,
                                   n_traj=3000, base_seed=41, obs=times, inputs=times,
                                   decoded=times, clipped=times)

        serial = columns()
        threaded = [None] * 4
        start = threading.Barrier(len(threaded))

        def work(i):
            start.wait(timeout=60)
            threaded[i] = columns()

        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(threaded))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert any(m.any() for m in serial["clipped"].values())
        for cols in threaded:
            for key, by_time in serial.items():
                assert cols[key].keys() == by_time.keys(), key
                assert all(np.array_equal(cols[key][t], by_time[t]) for t in by_time), key


def bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def policy_groups(learned, spec, emission) -> list[tuple]:
    """Policy tuples for one shared pass: the exploring policy first, in the
    middle and last, and two exploring policies of different sigma."""
    explore, greedy = learned.policy(), learned.greedy_policy()
    opt, zero = optimal_policy(spec, emission), PolicyDef()
    return [(explore, opt, zero), (opt, explore, zero), (zero, greedy, explore),
            (explore, PolicyDef(sigma=0.7), greedy)]


class TestSharedPass:
    """Policies that step together on one draw plan get, bitwise, what each
    gets from a pass of its own, chunk boundaries and one-row tails included."""

    @pytest.mark.parametrize("n", [1, 2, 8, 15])
    def test_shared_drive_equals_separate_drives(self, clipping_run, monkeypatch, n):
        config, result = clipping_run
        spec, emission, _ = make_benchmark_instance(config.instance)
        horizon = config.t_horizon
        every = set(range(horizon + 1))
        times = {key: every for key in ("states", "obs", "inputs", "injected", "noises",
                                        "costs", "decoded", "clipped")}
        monkeypatch.setattr(system, "CHUNK_ROWS", 7)

        def drive(policies):
            parts = {}

            def keep(k, key, rows, t, part):
                parts.setdefault((k, key, t), []).append(part.copy())

            system._drive(spec, emission, policies, horizon, n, 5, times, keep, 0)
            return {key: np.concatenate(chunks) for key, chunks in parts.items()}

        for policies in policy_groups(result.learned, spec, emission):
            shared = drive(policies)
            assert {k for k, _, _ in shared} == set(range(len(policies)))
            for k, policy in enumerate(policies):
                alone = drive((policy,))
                assert {key[1:] for key in shared if key[0] == k} == {key[1:] for key in alone}
                for (_, key, t), column in alone.items():
                    assert bitwise(shared[k, key, t], column), (k, key, t)

    @pytest.mark.parametrize("n", [2, 8, 15, 400])
    def test_shared_costs_equal_separate_costs(self, clipping_run, monkeypatch, n):
        config, result = clipping_run
        spec, emission, _ = make_benchmark_instance(config.instance)
        monkeypatch.setattr(system, "CHUNK_ROWS", 7)
        clipped_any = False
        for policies in policy_groups(result.learned, spec, emission):
            shared = trajectory_costs(spec, emission, policies, config.t_horizon, n,
                                      config.eval_seed)
            assert len(shared) == len(policies)
            for (costs, clipped, checked), policy in zip(shared, policies):
                [alone] = trajectory_costs(spec, emission, (policy,), config.t_horizon, n,
                                           config.eval_seed)
                assert bitwise(costs, alone[0]) and (clipped, checked) == alone[1:]
                clipped_any = clipped_any or clipped > 0
        # the clip radius b_bar = 1 clips some decoder steps once a pass has a few rows
        assert clipped_any or n == 2

    def test_gap_is_the_paired_difference_of_separate_passes(self, clipping_run, monkeypatch):
        config, result = clipping_run
        spec, emission, _ = make_benchmark_instance(config.instance)
        monkeypatch.setattr(system, "CHUNK_ROWS", 7)
        explore, opt, zero = policy_groups(result.learned, spec, emission)[0]
        for a, b in ((explore, opt), (opt, explore), (result.learned.greedy_policy(), zero)):
            (costs_a, _, _), (costs_b, _, _) = (
                trajectory_costs(spec, emission, (policy,), config.t_horizon, 15,
                                 config.eval_seed)[0] for policy in (a, b))
            assert estimate_gap(spec, emission, a, b, config.t_horizon, 15,
                                config.eval_seed) == mean_stderr(costs_a - costs_b)

    def test_cost_pass_holds_no_cost_matrix(self, monkeypatch):
        """Three policies on 200,000 rows of T = 10 steps peak below one
        (n_eval, T) float64 matrix: each chunk's costs are reduced as it ends."""
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        k = solve_dare(spec.a, spec.b, spec.q, spec.r).k
        policies = (PolicyDef(sigma=0.15, gain=k,
                              decoders=CurrentObsDecoder(emission.decode_batch)),
                    optimal_policy(spec, emission), PolicyDef())
        n_eval, horizon = 200_000, 10
        monkeypatch.setattr(system, "CHUNK_ROWS", 4096)
        tracemalloc.start()
        try:
            trajectory_costs(spec, emission, policies, horizon, n_eval, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_eval * horizon * 8


class TestRunningCostSum:
    """The cost pass sums c_1..c_T in order per row: bitwise the row mean of
    the (rows, T) cost block for T <= 7, within a few ulp of it beyond."""

    @pytest.mark.parametrize("name", ["scalar-identity", "di-cubic-lift"])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 64])
    def test_costs_are_the_row_mean_of_the_cost_columns(self, monkeypatch, name, horizon):
        spec, emission, _ = make_benchmark_instance(name)
        policies = (optimal_policy(spec, emission), PolicyDef(sigma=0.5))
        monkeypatch.setattr(system, "CHUNK_ROWS", 7)
        times = tuple(range(1, horizon + 1))
        passed = trajectory_costs(spec, emission, policies, horizon, 40, 5)
        for (costs, _, _), policy in zip(passed, policies):
            cols = rollout_columns(spec, emission, policy, horizon=horizon, n_traj=40,
                                   base_seed=5, costs=times)
            row_mean = np.stack([cols["costs"][t] for t in times], axis=1).mean(axis=1)
            if horizon <= 7:
                assert bitwise(costs, row_mean)
            else:
                np.testing.assert_array_max_ulp(costs, row_mean, maxulp=16)
