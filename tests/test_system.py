"""Simulator: stepping, rollouts, emissions, catalog, determinism, export."""
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentlqr import (DecoderStack, EmissionModel, FittedRegressor, Phase1Config, PolicyDef,
                       SystemSpec, ValidationError, collect_id_data, decoder_update,
                       make_benchmark_instance, open_loop_state_cov, optimal_policy, rollout,
                       rollout_columns, solve_dare)
from latentlqr import rng as rngmod
from latentlqr import system
from latentlqr.benchmarks import CATALOG, cubic_forward, cubic_inverse
from latentlqr.control import psd_sqrt
from latentlqr.evaluate import trajectory_costs
from latentlqr.rng import ROLE_INIT_STATE, ROLE_INPUT, ROLE_PROCESS, noise_block
from latentlqr.serialize import export_trajectories_csv
from latentlqr.system import CurrentObsDecoder

from helpers import estimate_growth_bound, truth_only


def scalar_spec(a=0.5, b=1.0, q=1.0, r=1.0, sw=1.0, s0=1.0) -> SystemSpec:
    return SystemSpec(a=[[a]], b=[[b]], q=[[q]], r=[[r]], sigma_w=[[sw]], sigma_0=[[s0]])


class TestStep:
    """One transition x_1 = A x_0 + B u_0 + w_0, read off vectorized rollouts."""

    def test_noiseless_scalar(self):
        spec = scalar_spec(a=0.0, sw=0.0, s0=0.0)
        _, emission, _ = make_benchmark_instance("scalar-identity")
        policy = PolicyDef.open_loop_gaussian(sigma=0.0, mean=[1.0])
        batch = rollout(spec, emission, policy, horizon=1, n_traj=2, base_seed=0)
        assert np.all(batch.states[:, 1] == 1.0) and np.all(batch.noises == 0.0)

    def test_identity_drift_no_input(self):
        spec = SystemSpec(a=np.eye(2), b=np.zeros((2, 0)), q=np.eye(2), r=np.zeros((0, 0)),
                          sigma_w=np.zeros((2, 2)), sigma_0=np.eye(2))
        emission = EmissionModel(d_y=2, emit=lambda x: x, true_decoder=lambda y: y)
        batch = rollout(spec, emission, PolicyDef.open_loop_gaussian(sigma=1.0), horizon=3,
                        n_traj=4, base_seed=0)
        assert batch.inputs.shape == (4, 4, 0)
        assert np.any(batch.states[:, 0] != 0.0)
        assert np.array_equal(batch.states, np.repeat(batch.states[:, :1], 4, axis=1))

    def test_dimension_mismatch(self):
        # rollouts take no state or input arguments: their shapes come from the spec
        with pytest.raises(ValidationError):
            SystemSpec(a=[[0.5]], b=[[1.0], [0.0]], q=[[1.0]], r=[[1.0]], sigma_w=[[1.0]],
                       sigma_0=[[1.0]])

    def test_monte_carlo_moments(self):
        spec = scalar_spec(a=0.5, b=1.0, sw=1.0, s0=4.0)
        _, emission, _ = make_benchmark_instance("scalar-identity")
        policy = PolicyDef.open_loop_gaussian(sigma=0.0, mean=[1.0])
        batch = rollout(spec, emission, policy, horizon=1, n_traj=100_000, base_seed=7)
        x0, x1 = batch.states[:, 0, 0], batch.states[:, 1, 0]
        # given x_0, x_1 has mean A x_0 + B u_0 = 0.5 x_0 + 1 and variance Sigma_w = 1
        increment = x1 - 0.5 * x0
        assert abs(increment.mean() - 1.0) <= 0.02
        assert abs(increment.var() - 1.0) <= 0.05
        assert abs(x1.var() - 2.0) <= 0.1  # 0.25 Sigma_0 + Sigma_w


class TestRollout:
    def test_constant_policy_costs(self):
        spec = scalar_spec(a=0.0, b=1.0, sw=0.0, s0=0.0)
        _, emission, _ = make_benchmark_instance("scalar-identity")
        policy = PolicyDef.open_loop_gaussian(sigma=0.0, mean=[1.0])
        batch = rollout(spec, emission, policy, horizon=3, n_traj=2, base_seed=0)
        assert np.allclose(batch.costs[:, 1:], 2.0)

    def test_zero_policy_zero_noise(self):
        spec = scalar_spec(sw=0.0, s0=0.0)
        _, emission, _ = make_benchmark_instance("scalar-identity")
        batch = rollout(spec, emission, PolicyDef.zero(1), horizon=4, n_traj=3, base_seed=0)
        assert np.allclose(batch.states, 0.0)
        assert np.allclose(batch.costs, 0.0)

    def test_bitwise_determinism(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        policy = PolicyDef.open_loop_gaussian(sigma=1.0)
        b1 = rollout(spec, emission, policy, horizon=5, n_traj=7, base_seed=42)
        b2 = rollout(spec, emission, policy, horizon=5, n_traj=7, base_seed=42)
        assert np.array_equal(b1.states, b2.states)
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.costs, b2.costs)

    def test_trajectory_invariant_to_batch_size(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        policy = PolicyDef.open_loop_gaussian(sigma=1.0)
        small = rollout(spec, emission, policy, horizon=5, n_traj=3, base_seed=9)
        large = rollout(spec, emission, policy, horizon=5, n_traj=11, base_seed=9)
        assert np.array_equal(small.states, large.states[:3])
        assert np.array_equal(small.inputs, large.inputs[:3])

    def test_replay_reconstructs_states(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = PolicyDef.open_loop_gaussian(sigma=1.0)
        batch = rollout(spec, emission, policy, horizon=6, n_traj=4, base_seed=3)
        x = batch.states[:, 0]
        for t in range(6):
            x = x @ spec.a.T + batch.inputs[:, t] @ spec.b.T + batch.noises[:, t]
            assert np.array_equal(x, batch.states[:, t + 1])

    def test_cost_oracle_exact(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = PolicyDef.open_loop_gaussian(sigma=1.0)
        batch = rollout(spec, emission, policy, horizon=4, n_traj=3, base_seed=5)
        for i in range(3):
            for t in range(5):
                x, u = batch.states[i, t], batch.inputs[i, t]
                assert batch.costs[i, t] == pytest.approx(x @ spec.q @ x + u @ spec.r @ u, abs=1e-12)

    def test_columns_match_full(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = PolicyDef.open_loop_gaussian(sigma=1.0)
        full = rollout(spec, emission, policy, horizon=6, n_traj=5, base_seed=11)
        counted, emitted = counting_emission(emission)
        cols = rollout_columns(spec, counted, policy, horizon=6, n_traj=5, base_seed=11,
                               obs_times=(2, 5), input_times=(1, 4), injected_times=(0, 3),
                               cost_times=(3,))
        # an open-loop policy reads no observations, so only t = 2, 5 are emitted
        assert emitted_times(emitted, full.states) == [2, 5]
        assert np.array_equal(cols["obs"][2], full.observations[:, 2])
        assert np.array_equal(cols["obs"][5], full.observations[:, 5])
        assert np.array_equal(cols["inputs"][4], full.inputs[:, 4])
        assert np.array_equal(cols["injected"][0], full.injected[:, 0])
        assert np.array_equal(cols["injected"][3], full.injected[:, 3])
        assert np.array_equal(cols["costs"][3], full.costs[:, 3])
        assert sorted(cols["costs"]) == [3] and cols["decoded"] == {}

    def test_columns_match_full_gain_decoder(self):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        gain = -0.3 * np.ones((spec.d_u, spec.d_x))
        policy = PolicyDef.gain_decoder(gain, CurrentObsDecoder(emission.decode_batch),
                                        sigma=0.5)
        full = rollout(spec, emission, policy, horizon=6, n_traj=5, base_seed=12)
        counted, emitted = counting_emission(emission)
        cols = rollout_columns(spec, counted, policy, horizon=6, n_traj=5, base_seed=12,
                               obs_times=(3,), injected_times=(1, 2), decoded_times=(0, 4))
        # a closed-loop policy reads every observation
        assert emitted_times(emitted, full.states) == list(range(7))
        assert np.array_equal(cols["obs"][3], full.observations[:, 3])
        assert np.array_equal(cols["injected"][2], full.injected[:, 2])
        for t in (0, 4):
            assert np.array_equal(cols["decoded"][t] @ gain.T + full.injected[:, t],
                                  full.inputs[:, t])
            assert np.allclose(cols["decoded"][t], full.states[:, t], atol=1e-9)

    def test_decoded_times_need_decoders(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        with pytest.raises(ValidationError):
            rollout_columns(spec, emission, PolicyDef.open_loop_gaussian(sigma=1.0), horizon=2,
                            n_traj=3, base_seed=0, decoded_times=(1,))

    def test_decoders_need_a_gain(self):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        with pytest.raises(ValidationError, match="requires a gain"):
            PolicyDef(sigma=0.1, decoders=CurrentObsDecoder(emission.decode_batch))


class TestStart:
    """rollout_columns(start=s) simulates t = s..horizon from the exact marginal."""

    @pytest.mark.parametrize("start, make_policy, times, match", [
        (-1, lambda spec, emission: PolicyDef.open_loop_gaussian(1.0), {}, "start must lie"),
        (5, lambda spec, emission: PolicyDef.open_loop_gaussian(1.0), {}, "start must lie"),
        (2, lambda spec, emission: optimal_policy(spec, emission), {}, "open-loop"),
        (2, lambda spec, emission: PolicyDef.gain_decoder(
            -0.3 * np.ones((spec.d_u, spec.d_x)), CurrentObsDecoder(emission.decode_batch),
            sigma=0.5), {}, "open-loop"),
        (2, lambda spec, emission: PolicyDef.open_loop_gaussian(1.0, mean=[0.0, 0.5]), {},
         "zero-mean"),
        (2, lambda spec, emission: PolicyDef.open_loop_gaussian(1.0),
         {"obs_times": (1, 3)}, "before start"),
    ], ids=["negative", "past-horizon", "optimal", "gain-decoder", "mean", "column-before"])
    def test_bad_start_raises_before_any_draw(self, start, make_policy, times, match,
                                               monkeypatch):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = make_policy(spec, emission)
        created = []
        monkeypatch.setattr(rngmod, "substream", lambda *key: created.append(key))
        with pytest.raises(ValidationError, match=match):
            rollout_columns(spec, emission, policy, horizon=4, n_traj=5, base_seed=0,
                            start=start, **times)
        assert created == []

    @pytest.mark.parametrize("policy, start", [
        (PolicyDef.zero(2), 2), (PolicyDef.open_loop_gaussian(0.5), 4),
    ], ids=["zero-policy", "zero-steps"])
    def test_start_state_is_drawn_from_the_marginal(self, policy, start):
        """x_start reads the (ROLE_INIT_STATE, start) substream, scaled to the
        state covariance under sigma-scaled inputs; start = horizon takes no step."""
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        cols = rollout_columns(spec, emission, policy, horizon=4, n_traj=5, base_seed=3,
                               state_times=(start,), obs_times=(start,), start=start)
        cov = open_loop_state_cov(spec.a, policy.sigma * spec.b, spec.sigma_w, spec.sigma_0,
                                  start)
        x = noise_block(3, ROLE_INIT_STATE, start, 5, spec.d_x) @ psd_sqrt(cov).T
        assert np.array_equal(cols["states"][start], x)
        assert np.array_equal(cols["obs"][start], emission.emit_batch(x))


def counting_emission(emission: EmissionModel) -> tuple[EmissionModel, list]:
    """The same emission, logging every batch of states it emits."""
    emitted = []

    def emit(x):
        emitted.append(x.copy())
        return emission.emit(x)

    return EmissionModel(d_y=emission.d_y, emit=emit, true_decoder=emission.true_decoder), emitted


def emitted_times(emitted: list, states: np.ndarray) -> list[int]:
    """Time index of each logged batch, found in a full rollout's states."""
    return [next(t for t in range(states.shape[1]) if np.array_equal(x, states[:, t]))
            for x in emitted]


def stack_policy(name: str, sigma: float) -> tuple:
    """An instance and a gain-decoder policy on a two-regressor decoder stack."""
    spec, emission, cls = make_benchmark_instance(name)
    sol = solve_dare(spec.a, spec.b, spec.q, spec.r)
    stack = DecoderStack(a_hat=spec.a, b_hat=spec.b, k_gain=sol.k, p_hat=sol.p, b_bar=50.0)
    for scale in (1.0, 0.9):
        decoder_update(FittedRegressor(candidate_index=0, m=scale * np.eye(spec.d_x),
                                       empirical_loss=0.0, decoder_class=truth_only(cls)),
                       stack)
    return spec, emission, PolicyDef.gain_decoder(sol.k, stack, sigma=sigma)


def reference_rollout(spec, emission, policy, horizon, n, seed, start=0) -> dict:
    """Every column of a rollout from t = start run as one batch of n rows, each
    (role, time) block drawn whole by noise_block: the loop rollouts ran before
    row chunks."""
    cov = spec.sigma_0 if start == 0 else open_loop_state_cov(
        spec.a, policy.sigma * spec.b, spec.sigma_w, spec.sigma_0, start)
    l_w, l_0 = psd_sqrt(spec.sigma_w), psd_sqrt(cov)
    cols = {key: [] for key in ("states", "observations", "inputs", "injected", "noises",
                                "costs", "decoded")}
    x = noise_block(seed, ROLE_INIT_STATE, start, n, spec.d_x) @ l_0.T
    y = emission.emit_batch(x)
    state = policy.begin(n)
    for t in range(start, horizon + 1):
        nu = policy.sigma * noise_block(seed, ROLE_INPUT, t, n, spec.d_u)
        u, value, _, state = policy.act(state, t, y, nu)
        cost = system._quad_rows(x, spec.q) + system._quad_rows(u, spec.r)
        for key, column in (("states", x), ("observations", y), ("inputs", u),
                            ("injected", nu), ("costs", cost), ("decoded", value)):
            cols[key].append(column)
        if t < horizon:
            w = noise_block(seed, ROLE_PROCESS, t, n, spec.d_x) @ l_w.T
            cols["noises"].append(w)
            x = x @ spec.a.T + u @ spec.b.T + w
            y = emission.emit_batch(x)
    return {key: np.stack(column, axis=1) for key, column in cols.items()
            if column and column[0] is not None}


def count_substreams(monkeypatch) -> list:
    """The (role, time) key of every substream created from now on, in order."""
    created = []
    substream = rngmod.substream

    def counting(base_seed, role, time):
        created.append((role, time))
        return substream(base_seed, role, time)

    monkeypatch.setattr(rngmod, "substream", counting)
    return created


def all_columns(spec, emission, policy, horizon, n, seed, start=0) -> dict:
    """rollout_columns keeping every time of every column it has, stacked along t."""
    times = tuple(range(start, horizon + 1))
    cols = rollout_columns(spec, emission, policy, horizon=horizon, n_traj=n, base_seed=seed,
                           obs_times=times, input_times=times, injected_times=times,
                           cost_times=times,
                           decoded_times=times if policy.decoders is not None else (),
                           start=start)
    return {key: np.stack([cols[key][t] for t in times], axis=1) for key in cols if cols[key]}


BATCH_FIELDS = ("states", "observations", "inputs", "injected", "noises", "costs")
COLUMN_FIELDS = {"obs": "observations", "inputs": "inputs", "injected": "injected",
                 "costs": "costs", "decoded": "decoded"}


class TestChunkedRollout:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["scalar-identity", "di-cubic-lift"]),
           n=st.integers(2, 30), extra=st.integers(0, 9), chunk=st.sampled_from([2, 3, 7]),
           horizon=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           open_loop=st.booleans(), start=st.integers(0, 4))
    def test_rows_invariant_to_n_and_chunking(self, name, n, extra, chunk, horizon, seed,
                                              open_loop, start):
        """Every recorded column is bitwise equal across n, across row chunks of
        2, 3 or 7 rows against the default, and against the unchunked reference loop,
        also for an open-loop rollout that starts mid-horizon.

        n = 1 is the exception: a one-row matrix product takes BLAS's vector
        path, whose last bit differs from the batched product's (so no chunk
        ever has one row when n >= 2).
        """
        spec, emission, policy = stack_policy(name, sigma=0.3)
        if open_loop:
            policy, start = PolicyDef.open_loop_gaussian(0.3), min(start, horizon)
        else:
            start = 0
        args = (spec, emission, policy, horizon)
        ref = reference_rollout(*args, n, seed, start)
        cols = all_columns(*args, n, seed, start)
        wider_cols = all_columns(*args, n + extra, seed, start)
        with mock.patch.object(system, "CHUNK_ROWS", chunk):
            bounds = system._row_chunks(n)
            small_cols = all_columns(*args, n, seed, start)
            small = rollout(*args, n, seed) if start == 0 else None
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == n and all(hi - lo == chunk for lo, hi in bounds[:-1])
        assert 2 <= bounds[-1][1] - bounds[-1][0] <= chunk + 1
        assert set(cols) == {key for key in COLUMN_FIELDS if COLUMN_FIELDS[key] in ref}
        for key in cols:
            ref_column = ref[COLUMN_FIELDS[key]]
            for columns in (cols, small_cols):
                assert np.array_equal(columns[key], ref_column), key
            assert np.array_equal(wider_cols[key][:n], ref_column), key
        if start == 0:
            full = rollout(*args, n, seed)
            wider = rollout(*args, n + extra, seed)
            for key in BATCH_FIELDS:
                for batch in (full, small):
                    assert np.array_equal(getattr(batch, key), ref[key]), key
                assert np.array_equal(getattr(wider, key)[:n], ref[key]), key

    @pytest.mark.parametrize("make_policy", [
        lambda spec, emission: PolicyDef.zero(spec.d_u),
        lambda spec, emission: optimal_policy(spec, emission),
        lambda spec, emission: stack_policy("di-cubic-lift", sigma=0.0)[2],
    ], ids=["zero", "optimal", "greedy"])
    def test_sigma_zero_reads_no_input_substream(self, make_policy, monkeypatch):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = make_policy(spec, emission)
        created = count_substreams(monkeypatch)
        monkeypatch.setattr(system, "CHUNK_ROWS", 4)
        cols = all_columns(spec, emission, policy, 4, 11, 5)
        assert sorted(created) == [(ROLE_INIT_STATE, 0)] + [(ROLE_PROCESS, t) for t in range(4)]
        assert np.array_equal(cols["injected"], np.zeros((11, 5, spec.d_u)))
        ref = reference_rollout(spec, emission, policy, 4, 11, 5)
        assert len(cols) == (5 if policy.decoders is not None else 4)
        for key in cols:
            assert np.array_equal(cols[key], ref[COLUMN_FIELDS[key]]), key
        created.clear()
        rollout(spec, emission, PolicyDef.open_loop_gaussian(0.5), 4, 11, 5)
        assert sorted(t for role, t in created if role == ROLE_INPUT) == list(range(5))

    def test_unread_last_action_draws_no_input(self, monkeypatch):
        """The input at t = horizon is drawn only where a column at the horizon
        records the action: phase 1 records inputs through kappa_1 of a rollout
        to kappa_1 + 1, a zero-step rollout records the start state, and
        trajectory_costs records c_horizon."""
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        created = count_substreams(monkeypatch)
        config = Phase1Config(n_id=20, kappa=2, psi_star=1.0, alpha_star=1.0, gamma_star=0.5,
                              d_x=spec.d_x, d_u=spec.d_u, kappa0_override=3)
        data = collect_id_data(spec, emission, config, seed=0)
        assert data.kappa1 == 5
        assert sorted(t for role, t in created if role == ROLE_INPUT) == [3, 4, 5]
        created.clear()
        cols = rollout_columns(spec, emission, PolicyDef.open_loop_gaussian(0.5), horizon=4,
                               n_traj=5, base_seed=0, obs_times=(4,), start=4)
        assert created == [(ROLE_INIT_STATE, 4)] and sorted(cols["obs"]) == [4]
        created.clear()
        trajectory_costs(spec, emission, PolicyDef.open_loop_gaussian(0.5), t_horizon=4,
                         n_eval=5, seed=0)
        assert (ROLE_INPUT, 4) in created

    @pytest.mark.parametrize("record_action", [False, True], ids=["state-only", "every-column"])
    def test_plan_no_longer_than_draw_ahead(self, record_action, monkeypatch):
        """A zero-step rollout of two rows plans one block (the start state), or
        two with the action at the horizon recorded, so take() finds no more
        planned blocks than DRAW_AHEAD; its columns still match the reference."""
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        policy = PolicyDef.open_loop_gaussian(0.5)
        created = count_substreams(monkeypatch)
        if record_action:
            cols = all_columns(spec, emission, policy, 3, 2, 9, start=3)
        else:
            cols = {key: np.stack([column[3]], axis=1) for key, column in rollout_columns(
                spec, emission, policy, horizon=3, n_traj=2, base_seed=9, obs_times=(3,),
                start=3).items() if column}
        assert len(created) == (2 if record_action else 1) <= system.DRAW_AHEAD
        ref = reference_rollout(spec, emission, policy, 3, 2, 9, start=3)
        assert set(cols) == ({"obs", "inputs", "injected", "costs"} if record_action else {"obs"})
        for key in cols:
            assert np.array_equal(cols[key], ref[COLUMN_FIELDS[key]]), key

    def test_quad_rows_matches_einsum(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            x = rng.standard_normal((1_000, d))
            g = rng.standard_normal((d, d))
            m = g @ g.T + np.eye(d)
            rows = system._quad_rows(x, m)
            assert np.array_equal(rows, np.einsum("ni,ij,nj->n", x, m, x))
            assert all(np.array_equal(system._quad_rows(x[i:i + 2], m), rows[i:i + 2])
                       for i in range(0, 1_000, 2))


class FailingDecoder:
    """The true decoder until time fail_at, where one row turns NaN."""

    def __init__(self, emission, fail_at):
        self.emission, self.fail_at = emission, fail_at

    def begin(self, n):
        return None

    def step(self, state, t, y):
        value = self.emission.decode_batch(y)
        if t == self.fail_at:
            value[-1] = np.nan
        return value, None, state


class FailingStream:
    """A generator whose draws fail from the k-th call on."""

    def __init__(self, gen, calls):
        self.gen, self.calls = gen, calls

    def standard_normal(self, *args, **kwargs):
        self.calls -= 1
        if self.calls < 0:
            raise RuntimeError("draw failed")
        return self.gen.standard_normal(*args, **kwargs)


def draw_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("latentlqr-draws")]


class TestDrawWorker:
    def test_failures_leave_no_worker_and_no_state(self, monkeypatch):
        spec, emission, _ = make_benchmark_instance("di-cubic-lift")
        gain = -0.3 * np.ones((spec.d_u, spec.d_x))
        seen = []

        def decode(y):  # the draw threads alive while the rollout runs
            seen.append(draw_threads())
            return emission.decode_batch(y)

        good = PolicyDef.gain_decoder(gain, CurrentObsDecoder(decode), 0.5)
        bad = PolicyDef.gain_decoder(gain, FailingDecoder(emission, fail_at=3), 0.5)
        monkeypatch.setattr(system, "CHUNK_ROWS", 8)
        fresh = rollout(spec, emission, good, horizon=6, n_traj=50, base_seed=17)
        assert seen and all(len(names) == 1 for names in seen)
        threads = threading.active_count()
        for _ in range(20):
            with pytest.raises(ValidationError, match="t=3"):
                rollout(spec, emission, bad, horizon=6, n_traj=50, base_seed=17)
        assert threading.active_count() == threads and draw_threads() == []
        substream = rngmod.substream
        monkeypatch.setattr(rngmod, "substream",
                            lambda *key: FailingStream(substream(*key), calls=2))
        for _ in range(20):
            with pytest.raises(RuntimeError, match="draw failed"):
                rollout(spec, emission, good, horizon=6, n_traj=50, base_seed=17)
        assert threading.active_count() == threads and draw_threads() == []
        monkeypatch.setattr(rngmod, "substream", substream)
        again = rollout(spec, emission, good, horizon=6, n_traj=50, base_seed=17)
        for key in BATCH_FIELDS:
            assert np.array_equal(getattr(again, key), getattr(fresh, key)), key


class TestNoiseStreams:
    def test_row_stability(self):
        small = noise_block(123, ROLE_PROCESS, 4, 5, 3)
        large = noise_block(123, ROLE_PROCESS, 4, 9, 3)
        assert np.array_equal(small[2], large[2])

    def test_distinct_roles_and_times(self):
        a = noise_block(123, ROLE_PROCESS, 0, 4, 2)
        b = noise_block(123, ROLE_PROCESS, 1, 4, 2)
        assert not np.allclose(a, b)


class TestEmissions:
    @pytest.mark.parametrize("name", CATALOG)
    def test_decodability(self, name):
        spec, emission, _ = make_benchmark_instance(name)
        err = emission.check_decodable(spec, n=10_000, seed=1)
        assert err <= 1e-9

    def test_cubic_inverse_matches_bisection(self):
        # z + 0.5 z^3 = 1.5 has root z = 1
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid + 0.5 * mid**3 < 1.5:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(cubic_inverse(np.array([1.5]), 0.5)[0] - root) < 1e-9
        assert abs(cubic_inverse(np.array([1.5]), 0.5)[0] - 1.0) < 1e-9

    def test_cubic_degenerate_linear(self):
        w = np.linspace(-3, 3, 11)
        assert np.array_equal(cubic_inverse(w, 0.0), w)

    def test_zero_coefficient_emission_is_linear(self):
        from latentlqr.benchmarks import cubic_lift_emission

        emission, _ = cubic_lift_emission(d_x=2, d_y=5, c=0.0, seed=7)
        rng = np.random.default_rng(9)
        x1, x2 = rng.standard_normal((2, 3, 2))
        additivity = emission.emit_batch(x1 + x2) - emission.emit_batch(x1) - emission.emit_batch(x2)
        assert np.max(np.abs(additivity)) < 1e-12
        y = emission.emit_batch(x1)
        decode_additivity = (emission.decode_batch(y[:1] + y[1:2])
                             - emission.decode_batch(y[:1]) - emission.decode_batch(y[1:2]))
        assert np.max(np.abs(decode_additivity)) < 1e-12

    def test_unknown_instance(self):
        with pytest.raises(ValidationError):
            make_benchmark_instance("not-a-thing")

    def test_scalar_identity_shape(self):
        spec, emission, cls = make_benchmark_instance("scalar-identity")
        assert spec.d_x == spec.d_u == emission.d_y == 1
        assert len(cls) == 1

    def test_growth_bound_holds(self):
        spec, emission, cls = make_benchmark_instance("di-cubic-lift")
        growth_bound = estimate_growth_bound(cls, spec, emission.emit, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2_000, 2))
        y = emission.emit_batch(x)
        denom = np.maximum(1.0, np.linalg.norm(x, axis=1))
        for f in cls.candidates:
            ratio = np.linalg.norm(f(y), axis=1) / denom
            assert np.max(ratio) <= growth_bound * (1 + 1e-6)


def pow_forward(z, c):
    return z + c * z**3


def pow_inverse(w, c):
    """Cardano plus two Newton steps, cubes and squares through ** (libm pow)."""
    p = 1.0 / c
    q = -w / c
    disc = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    z = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    for _ in range(2):
        z = z - (z + c * z**3 - w) / (1.0 + 3.0 * c * z**2)
    return z


# signed values whose magnitudes spread log-uniformly over 1e-3 .. 1e6
wide_values = st.lists(st.tuples(st.floats(-3.0, 6.0), st.booleans()), min_size=1,
                       max_size=64).map(lambda pairs: np.array(
                           [(-1.0 if neg else 1.0) * 10.0**e for e, neg in pairs]))
coefficients = st.floats(0.05, 2.0)
latent_states = st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
                         min_size=1, max_size=64).map(np.array)
kernel_settings = settings(max_examples=60, deadline=None)


class TestCubicKernels:
    @kernel_settings
    @given(z=wide_values, c=coefficients)
    def test_round_trip(self, z, c):
        back = cubic_inverse(cubic_forward(z, c), c)
        assert np.all(np.abs(back - z) <= 1e-12 * np.abs(z))

    @kernel_settings
    @given(w=wide_values, c=coefficients)
    def test_match_pow_reference(self, w, c):
        for kernel, reference in ((cubic_forward, pow_forward), (cubic_inverse, pow_inverse)):
            ref = reference(w, c)
            assert np.all(np.abs(kernel(w, c) - ref) <= 4 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("name", ["di-cubic-lift", "stable2x1-lift5"])
    @kernel_settings
    @given(x=latent_states)
    def test_decode_inverts_emit(self, name, x):
        _, emission, _ = make_benchmark_instance(name)
        back = emission.decode_batch(emission.emit_batch(x))
        scale = np.maximum(1.0, np.max(np.abs(x), axis=1, keepdims=True))
        assert np.all(np.abs(back - x) <= 1e-12 * scale)

    @pytest.mark.parametrize("name", ["di-cubic-lift", "stable2x1-lift5"])
    @kernel_settings
    @given(x=latent_states.filter(lambda x: x.shape[0] >= 2))
    def test_projected_decode_equals_full_rotation(self, name, x):
        # bitwise on batches; a single row goes through BLAS's vector
        # product, whose summation order differs in the last bit
        _, emission, cls = make_benchmark_instance(name)
        y = emission.emit_batch(x)
        for f in cls.candidates:
            fam = f.__self__
            full = cubic_inverse((y @ fam.rot)[:, : fam.d_x], fam.c)
            assert np.array_equal(f(y), full)


class TestExport:
    def test_trajectories_csv(self, tmp_path):
        spec, emission, _ = make_benchmark_instance("scalar-identity")
        batch = rollout(spec, emission, PolicyDef.open_loop_gaussian(1.0),
                        horizon=2, n_traj=2, base_seed=0)
        path = tmp_path / "traj.csv"
        export_trajectories_csv(path, batch)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "traj,t,x_0,y_0,u_0,c"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[-1] == ""
        second = lines[2].split(",")
        assert float(second[-1]) == pytest.approx(batch.costs[0, 1])
