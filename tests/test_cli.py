"""Command-line interface: subcommands, exit codes, determinism."""
import re
from pathlib import Path

import pytest

from latentlqr.cli import main


def write_config(path: Path, **overrides) -> Path:
    """A small scalar-identity config; an override of None drops that key."""
    values = dict(instance="scalar-identity", n_id=1200, n_op=500, t_horizon=2,
                  n_eval=200, seed=3, sigma=0.3, kappa0_override=4)
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items() if v is not None))
    return path


def set_candidate(path: Path, index: int) -> None:
    """Rewrite the candidate header of a saved regressor."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(f"candidate,{index}\n" + "".join(lines[1:]))


def set_meta(path: Path, key: str, value: str) -> None:
    """Rewrite the value of one key of a saved meta.csv."""
    path.write_text(re.sub(rf"^{key},.*$", f"{key},{value}", path.read_text(), flags=re.M))


def set_first_entry(path: Path, line: int, value: str) -> None:
    """Rewrite the first entry on one line of a saved matrix or regressor."""
    lines = path.read_text().splitlines()
    lines[line] = ",".join([value] + lines[line].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")


def files_under(root: Path) -> dict:
    """Relative path -> bytes of every file below root."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestSubcommands:
    def test_simulate(self, tmp_path):
        code = main(["simulate", "--instance", "scalar-identity", "--seed", "1",
                     "--out", str(tmp_path), "--horizon", "4", "--n-traj", "3"])
        assert code == 0
        assert (tmp_path / "trajectories.csv").exists()

    def test_phase1_then_full_pipeline(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["phase1", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "phase1" / "h_id.csv").exists()
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "report.csv").exists()
        assert (tmp_path / "b" / "policy" / "meta.csv").exists()

    def test_phase3_then_eval(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["phase3", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("instance", ["scalar-identity", "di-cubic-lift"])
    def test_eval_reproduces_pipeline_report(self, tmp_path, instance):
        # eval reloads phase1/ and policy/ and runs the pipeline's evaluate
        # stage on them, so its files equal the pipeline's byte for byte
        cfg = write_config(tmp_path / "run.cfg", instance=instance)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "eval_report.csv").read_bytes() == (out / "report.csv").read_bytes()
        assert ((out / "eval_decoder_errors.csv").read_bytes()
                == (out / "decoder_errors.csv").read_bytes())

    def test_phase_commands_stop_the_pipeline(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        runs = {}
        for command in ("phase1", "phase2", "phase3", "pipeline"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
            runs[command] = files_under(tmp_path / command)
        learned = {k: v for k, v in runs["pipeline"].items()
                   if k.split("/")[0] in ("phase1", "sysid", "policy")}
        assert runs["phase3"] == learned
        assert runs["phase2"] == {k: v for k, v in learned.items()
                                  if not k.startswith("policy/")}
        assert runs["phase1"] == {k: v for k, v in learned.items()
                                  if k.startswith("phase1/")}


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", n_id=0)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_is_2(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("instance = scalar-identity\nbogus_key = 1\n")
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_instance_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", instance="nope")
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_policy_for_eval_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 2

    def test_missing_phase1_for_eval_is_2(self, tmp_path, capsys):
        import shutil

        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["phase3", "--config", str(cfg), "--out", str(out)]) == 0
        shutil.rmtree(out / "phase1")
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert "phase1" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("damage, named", [
        (lambda policy: (policy / "h_0.csv").write_text("garbage\n"), "h_0.csv"),
        (lambda policy: (policy / "meta.csv").unlink(), "meta.csv"),
        (lambda policy: (policy / "meta.csv").write_text(re.sub(
            r"^sigma,.*$", "sigma,abc", (policy / "meta.csv").read_text(), flags=re.M)),
         "meta.csv"),
        (lambda policy: (policy / "k_gain.csv").write_text("1,1\n0.5\n"), "k_gain.csv"),
        (lambda policy: set_candidate(policy / "h_1.csv", -1), "h_1.csv"),
        (lambda policy: set_candidate(policy / "h_1.csv", 99), "h_1.csv"),
        (lambda policy: (policy / "init_h_ol1.csv").unlink(), "init_h_ol1.csv"),
        (lambda policy: (policy / "meta.csv").write_text(
            (policy / "meta.csv").read_text() + "sigma,0.9\n"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "b_bar", "nan"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "b_bar", "-1"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "b_bar", "inf"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "sigma", "0"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "sigma", "5"), "meta.csv"),
        (lambda policy: set_meta(policy / "meta.csv", "trajectories_used", "-7"), "meta.csv"),
        # line 0 of a matrix is its "rows,cols" header; a regressor has a
        # "candidate,<index>" line before that
        (lambda policy: set_first_entry(policy / "k_gain.csv", 1, "nan"), "k_gain.csv"),
        (lambda policy: set_first_entry(policy / "h_0.csv", 2, "inf"), "h_0.csv"),
    ], ids=["garbled-regressor", "missing-meta", "unparsable-sigma", "one-by-one-gain",
            "negative-candidate", "candidate-out-of-range", "missing-initial-state",
            "repeated-sigma", "nan-clip-radius", "negative-clip-radius",
            "infinite-clip-radius", "zero-sigma", "sigma-above-one",
            "negative-trajectories-used", "nan-gain", "infinite-regressor"])
    def test_damaged_saved_policy_for_eval_is_2(self, tmp_path, capsys, monkeypatch,
                                                damage, named):
        import latentlqr.system as system

        # di-cubic-lift: d_x = d_u = 2 and eight candidate decoders
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        damage(out / "policy")

        def no_simulation(*args):
            raise AssertionError("simulated before the saved policy was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(out / "policy" / named) in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("name", ["v_id.csv", "h_id.csv"])
    def test_misshaped_phase1_for_eval_is_2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        # drop the last column, leaving a (kappa d_u) x (d_x - 1) matrix
        path = out / "phase1" / name
        lines = path.read_text().splitlines()
        header = 1 if name == "h_id.csv" else 0  # the "candidate,<index>" line
        rows, cols = (int(v) for v in lines[header].split(","))
        body = [line.rsplit(",", 1)[0] for line in lines[header + 1:]]
        path.write_text("\n".join(lines[:header] + [f"{rows},{cols - 1}"] + body) + "\n")
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("kappa0, kappa1", [(-1, 0), (-5, -4)])
    def test_negative_kappa0_for_eval_is_2(self, tmp_path, capsys, monkeypatch,
                                           kappa0, kappa1):
        import latentlqr.system as system

        # kappa1 - kappa0 is still kappa, so the matrices keep their saved shape
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "phase1" / "meta.csv"
        path.write_text(f"kappa0,{kappa0}\nkappa1,{kappa1}\n")

        def no_simulation(*args):
            raise AssertionError("simulated before the saved phase 1 was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    def test_non_finite_phase1_for_eval_is_2(self, tmp_path, capsys, monkeypatch):
        import latentlqr.system as system

        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "phase1" / "v_id.csv"
        set_first_entry(path, 1, "nan")

        def no_simulation(*args):
            raise AssertionError("simulated before the saved phase 1 was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    def test_duplicate_key_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg")
        cfg.write_text(cfg.read_text() + "sigma = 0.9\n")
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "duplicate key 'sigma'" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_overrides_win_over_the_config(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", seed=3)
        out = tmp_path / "o"
        assert main(["phase1", "--config", str(cfg), "--out", str(out), "--seed", "4"]) == 0
        assert main(["phase1", "--config", str(write_config(tmp_path / "four.cfg", seed=4)),
                     "--out", str(tmp_path / "four")]) == 0
        assert files_under(out) == files_under(tmp_path / "four")

    def test_eval_horizon_mismatch_is_2(self, tmp_path, capsys, monkeypatch):
        import latentlqr.system as system

        out = tmp_path / "run"
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["phase3", "--config", str(cfg), "--out", str(out)]) == 0

        def no_simulation(*args):
            raise AssertionError("simulated before the horizon was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        longer = write_config(tmp_path / "longer.cfg", t_horizon=3)
        assert main(["eval", "--config", str(longer), "--out", str(out)]) == 2
        assert "t_horizon" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("overrides", [
        dict(n_id="1e4"),
        dict(seed=-5),
        dict(eval_seed=-1),
        dict(epsilon=0.1),
        dict(n_eval=1),
        dict(metric_rollouts=0),
        dict(psi_star="nan"),
        dict(alpha_star="inf", kappa0_override=None),
        dict(psi_star="1e100", kappa0_override=None),
        dict(epsilon="nan", sigma=None),
        dict(b_bar="nan"),
        dict(r_op="inf"),
        dict(psi_star="1e150"),
        # fewer initial-state rows than d_x = 2 leave their covariance singular
        dict(instance="di-cubic-lift", n_init=1),
        dict(instance="di-cubic-lift", n_op=1),
        # a 2x2 cost has 3 parameters, so its fit needs 3 phase-1 rows
        dict(instance="di-cubic-lift", n_id=2),
        # stable2x1-lift5 needs two scalar inputs to reach its 2-dim state
        dict(instance="stable2x1-lift5", kappa=1),
    ], ids=["unparsable-int", "negative-seed", "negative-eval-seed", "sigma-and-epsilon",
            "one-eval-rollout", "no-metric-rollouts", "nan-psi", "inf-alpha",
            "overflowing-psi-burn-in", "nan-epsilon", "nan-clip-radius", "inf-r-op",
            "overflowing-psi-cube", "n-init-below-d-x", "n-op-below-d-x",
            "n-id-below-cost-fit", "kappa-below-kappa-star"])
    def test_bad_config_is_2_before_simulating(self, tmp_path, capsys, monkeypatch, overrides):
        import latentlqr.system as system

        def no_simulation(*args):
            raise AssertionError("simulated before the config was validated")

        monkeypatch.setattr(system, "_drive", no_simulation)
        cfg = write_config(tmp_path / "bad.cfg", **overrides)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "report.csv").exists()
        assert not (out / "phase1").exists()
        err = capsys.readouterr().err
        # the message names the offending key
        assert all(key in err for key, value in overrides.items() if value is not None)
        if overrides.get("n_id") == "1e4":
            assert "config line 2" in err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_simulate_non_finite_sigma_is_2_before_simulating(self, tmp_path, capsys,
                                                              monkeypatch, sigma):
        import latentlqr.system as system

        def no_simulation(*args):
            raise AssertionError("simulated before sigma was validated")

        monkeypatch.setattr(system, "_drive", no_simulation)
        out = tmp_path / "o"
        code = main(["simulate", "--instance", "scalar-identity", "--seed", "1",
                     "--out", str(out), "--sigma", sigma])
        assert code == 2
        assert "sigma" in capsys.readouterr().err
        assert not (out / "trajectories.csv").exists()

    def test_numerical_failure_is_3(self, tmp_path):
        # sigma so small the initial-state covariance trips the inversion guard
        cfg = write_config(tmp_path / "run.cfg", sigma=1e-6, n_op=60, n_init=60)
        code = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        for name in ("report.csv", "decoder_errors.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
