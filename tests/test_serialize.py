"""Round trips for the matrix CSV format and model folders."""
from pathlib import Path

import numpy as np
import pytest

from latentlqr import (ExperimentConfig, make_benchmark_instance, run_pipeline)
from latentlqr.errors import ValidationError
from latentlqr.regression import DecoderClass, FittedRegressor
from latentlqr.serialize import (load_key_values, load_matrix, load_phase1, load_policy,
                                 load_regressor, load_sysid, save_matrix, save_regressor)


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5))
        save_matrix(tmp_path / "m.csv", m)
        assert np.array_equal(load_matrix(tmp_path / "m.csv"), m)

    def test_header(self, tmp_path):
        save_matrix(tmp_path / "m.csv", np.zeros((2, 4)))
        first = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert first == "2,4"

    def test_regressor_roundtrip(self, tmp_path):
        cls = DecoderClass(candidates=(lambda y: np.atleast_2d(y),))
        reg = FittedRegressor(candidate_index=0, m=np.array([[1.5, -2.0]]),
                              empirical_loss=0.0, decoder_class=cls)
        save_regressor(tmp_path / "r.csv", reg)
        loaded = load_regressor(tmp_path / "r.csv", cls)
        assert loaded.candidate_index == 0
        assert np.array_equal(loaded.m, reg.m)
        obs = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(loaded.predict(obs), reg.predict(obs))


class TestKeyValues:
    @pytest.mark.parametrize("key", ["sigma", "t_horizon"])
    def test_repeated_key_is_refused(self, tmp_path, key):
        # refused whether or not the repeated key is one of those asked for
        path = tmp_path / "meta.csv"
        path.write_text("sigma,0.2\nt_horizon,4\nb_bar,3.5\n" + f"{key},9\n")
        with pytest.raises(ValidationError) as err:
            load_key_values(path, {"sigma": float, "b_bar": float})
        assert str(path) in str(err.value) and f"duplicate key {key!r}" in str(err.value)


class TestModelFolders:
    @pytest.mark.parametrize("name", ["scalar-identity", "di-cubic-lift"])
    def test_policy_roundtrip_reproduces_actions(self, tmp_path, name):
        config = ExperimentConfig(instance=name, n_id=1200, n_op=500,
                                  t_horizon=2, n_eval=100, seed=9, sigma=0.3,
                                  kappa0_override=4)
        result = run_pipeline(config, outdir=tmp_path)
        spec, emission, cls = make_benchmark_instance(name)
        est = load_sysid(tmp_path / "sysid", spec)
        loaded = load_policy(tmp_path / "policy", cls, spec, est)
        assert np.allclose(est.a_hat, result.estimates.a_hat)

        from latentlqr import rollout

        b1 = rollout(spec, emission, result.learned.policy(), horizon=2, n_traj=20,
                     base_seed=123)
        b2 = rollout(spec, emission, loaded.policy(), horizon=2, n_traj=20, base_seed=123)
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.costs, b2.costs)

    @pytest.mark.parametrize("name", ["scalar-identity", "di-cubic-lift"])
    def test_every_saved_file_is_read_back(self, tmp_path, monkeypatch, name):
        # a file the savers write and no loader reads is dead weight on disk
        config = ExperimentConfig(instance=name, n_id=1200, n_op=500,
                                  t_horizon=2, n_eval=100, seed=9, sigma=0.3,
                                  kappa0_override=4)
        run_pipeline(config, outdir=tmp_path, stop_after="phase3")
        written = {p for p in tmp_path.rglob("*") if p.is_file()}
        read = set()
        read_text = Path.read_text

        def recording_read_text(path, *args, **kwargs):
            read.add(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recording_read_text)
        spec, _, cls = make_benchmark_instance(name)
        load_phase1(tmp_path / "phase1", cls, spec)
        est = load_sysid(tmp_path / "sysid", spec)
        load_policy(tmp_path / "policy", cls, spec, est)
        assert {p.parent.name for p in written} == {"phase1", "sysid", "policy"}
        assert sorted(str(p.relative_to(tmp_path)) for p in written - read) == []

    @pytest.mark.parametrize("name", ["scalar-identity", "di-cubic-lift"])
    def test_policy_holds_no_copy_of_sysid(self, tmp_path, name):
        # the identified system has one home, sysid/; policy/ holds what
        # phase 3 learned on top of it
        config = ExperimentConfig(instance=name, n_id=1200, n_op=500,
                                  t_horizon=2, n_eval=100, seed=9, sigma=0.3,
                                  kappa0_override=4)
        run_pipeline(config, outdir=tmp_path, stop_after="phase3")
        sysid = {p.read_bytes(): p.name for p in (tmp_path / "sysid").iterdir()}
        copies = sorted(f"policy/{p.name} = sysid/{sysid[p.read_bytes()]}"
                        for p in (tmp_path / "policy").iterdir() if p.read_bytes() in sysid)
        assert copies == []
