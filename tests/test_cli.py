"""Command-line interface: subcommands, exit codes, determinism."""
import contextlib
import io
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latentlqr.system as system
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


def scale_first_entry(path: Path, factor: float) -> None:
    """Multiply entry [0, 0] of a saved matrix or regressor by factor."""
    lines = path.read_text().splitlines()
    line = 2 if lines[0].startswith("candidate,") else 1
    set_first_entry(path, line, repr(factor * float(lines[line].split(",")[0])))


def append_last_row(path: Path) -> None:
    """Append a copy of the last line of a saved matrix or regressor."""
    text = path.read_text()
    path.write_text(text + text.splitlines()[-1] + "\n")


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
        (lambda policy: (policy / "init_sigma_cov.csv").write_text("1,1\n0.5\n"),
         "init_sigma_cov.csv"),
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
        # "candidate,<index>" line before that. The initial-state gain is not
        # saved; init_sigma_cov.csv is the input it is rebuilt from
        (lambda policy: set_first_entry(policy / "init_sigma_cov.csv", 1, "nan"),
         "init_sigma_cov.csv"),
        (lambda policy: set_first_entry(policy / "h_0.csv", 2, "inf"), "h_0.csv"),
        (lambda policy: append_last_row(policy / "h_0.csv"), "h_0.csv"),
        (lambda policy: set_first_entry(policy / "init_sigma_cov.csv", 2, "12345"),
         "init_sigma_cov.csv"),
    ], ids=["garbled-regressor", "missing-meta", "unparsable-sigma", "one-by-one-gain",
            "negative-candidate", "candidate-out-of-range", "missing-initial-state",
            "repeated-sigma", "nan-clip-radius", "negative-clip-radius",
            "infinite-clip-radius", "zero-sigma", "sigma-above-one",
            "negative-trajectories-used", "nan-gain", "infinite-regressor", "extra-row",
            "asymmetric-initial-covariance"])
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

    def test_missing_sysid_for_eval_is_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        shutil.rmtree(out / "sysid")

        def no_simulation(*args):
            raise AssertionError("simulated before the saved sysid was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"no saved sysid under {out}; run phase2" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.parametrize("damage, named", [
        (lambda sysid: (sysid / "a_hat.csv").unlink(), "a_hat.csv"),
        # b_hat is d_x x d_u = 2x2 on di-cubic-lift
        (lambda sysid: (sysid / "b_hat.csv").write_text("2,1\n0.5\n0.25\n"), "b_hat.csv"),
        (lambda sysid: (sysid / "q_hat.csv").write_text("1,1\n0.5\n"), "q_hat.csv"),
        (lambda sysid: set_first_entry(sysid / "sigma_w_hat.csv", 1, "nan"), "sigma_w_hat.csv"),
        (lambda sysid: append_last_row(sysid / "a_hat.csv"), "a_hat.csv"),
    ], ids=["missing-file", "misshaped-b-hat", "one-by-one-q-hat", "nan-entry", "extra-row"])
    def test_damaged_saved_sysid_for_eval_is_2(self, tmp_path, capsys, monkeypatch,
                                               damage, named):
        # eval acts with the saved policy on sysid/'s a_hat and b_hat, and
        # checks all four estimates before anything is simulated
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        damage(out / "sysid")

        def no_simulation(*args):
            raise AssertionError("simulated before the saved sysid was checked")

        monkeypatch.setattr(system, "_drive", no_simulation)
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert str(out / "sysid" / named) in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_saved_policy_is_3(self, tmp_path, capsys):
        # a clip radius of 1e300 and a first-row entry of 1e150 in h_1 are finite,
        # so the loader takes them. h_1 defines the last decoder, f_2 of T = 2, so
        # its values overflow the costs they drive and no later observation; an
        # earlier decoder would overflow the observations, and the next decoder
        # value would be nan
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        set_meta(out / "policy" / "meta.csv", "b_bar", "1e300")
        set_first_entry(out / "policy" / "h_1.csv", 2, "1e150")
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 3
        assert "non-finite j_learned" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_learned_policy_is_3_from_pipeline(self, tmp_path, capsys,
                                                           monkeypatch):
        import latentlqr.pipeline as pipeline

        compute_policy = pipeline.compute_policy

        def overflowing(*args, **kwargs):
            learned = compute_policy(*args, **kwargs)
            learned.stack.k_gain = learned.stack.k_gain * 1e300
            return learned

        monkeypatch.setattr(pipeline, "compute_policy", overflowing)
        cfg = write_config(tmp_path / "run.cfg", instance="di-cubic-lift")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 3
        assert "stage=evaluate" in capsys.readouterr().err
        assert (out / "policy" / "h_0.csv").exists()
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["pipeline", "phase1", "phase2", "phase3", "eval"])
    def test_refused_config_creates_no_out(self, tmp_path, command):
        cfg = write_config(tmp_path / "bad.cfg", seed=None)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("overrides, named", [
        (dict(kappa0_override=-1), "kappa0 override"),
        (dict(gamma_star=0.99999, kappa0_override=None), "burn-in"),
    ], ids=["negative-kappa0-override", "burn-in-above-cap"])
    def test_refused_burn_in_creates_no_out(self, tmp_path, capsys, overrides, named):
        # the burn-in is a function of the config, refused with it
        cfg = write_config(tmp_path / "bad.cfg", **overrides)
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_eval_creates_no_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.cfg")
        out = tmp_path / "mistyped"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no saved phase1" in capsys.readouterr().err
        assert not out.exists()

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


def _set_last_value(path: Path, value) -> None:
    """Rewrite the last comma-separated value of a saved file's last line;
    value maps the old value to the new one."""
    lines = path.read_text().splitlines()
    head, _, old = lines[-1].rpartition(",")
    lines[-1] = f"{head},{value(old)}"
    path.write_text("\n".join(lines) + "\n")


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


def _replace_by_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


# Damage to one saved file, each applied in place.
MUTATIONS = {
    "empty": lambda p: p.write_text(""),
    "last-line-dropped": lambda p: _rewrite(p, lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    "extra-column": lambda p: _rewrite(p, lambda t: t.rstrip("\n") + ",0\n"),
    "extra-row": append_last_row,
    "duplicated-row": lambda p: _rewrite(p, lambda t: "\n".join(
        t.splitlines()[:2] + t.splitlines()[1:]) + "\n"),
    "word": lambda p: _set_last_value(p, lambda v: "abc"),
    "binary": lambda p: p.write_bytes(b"\x00\xff\xfe\x80\n"),
    "sign-flip": lambda p: _set_last_value(p, lambda v: v[1:] if v.startswith("-") else "-" + v),
    "zero": lambda p: _set_last_value(p, lambda v: "0"),
    "huge": lambda p: _set_last_value(p, lambda v: "1e300"),
    "negative-zero": lambda p: _set_last_value(p, lambda v: "-0"),
    "int-plus-half": lambda p: _set_last_value(p, lambda v: f"{int(float(v))}.5"),
    "blank-lines": lambda p: _rewrite(p, lambda t: t.replace("\n", "\n\n")),
    "spaces-around-commas": lambda p: _rewrite(p, lambda t: t.replace(",", " , ")),
    "crlf": lambda p: _rewrite(p, lambda t: t.replace("\n", "\r\n")),
    "directory": _replace_by_directory,
}

# What a di-cubic-lift run with t_horizon = 2 saves, and cli eval loads.
SAVED_FILES = sorted(
    [f"phase1/{n}.csv" for n in ("h_id", "v_id", "meta")]
    + [f"sysid/{n}.csv" for n in ("a_hat", "b_hat", "sigma_w_hat", "q_hat")]
    + [f"policy/{n}.csv" for n in ("h_0", "h_1", "init_h_ol1", "init_h_ol0",
                                   "init_sigma_cov", "meta")])


@pytest.fixture(scope="module")
def tiny_saved_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = write_config(root / "run.cfg", instance="di-cubic-lift", metric_rollouts=50)
    assert main(["pipeline", "--config", str(cfg), "--out", str(root / "run")]) == 0
    saved = sorted(str(p.relative_to(root / "run")) for p in (root / "run").rglob("*.csv")
                   if p.parent != root / "run")
    assert saved == SAVED_FILES
    return cfg, root / "run"


class TestSavedModelBoundary:
    # 100 evals of the tiny model take about 1.5 s on a 2-core VM; a damaged
    # but finite model may overflow, which numpy warns about
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(rel=st.sampled_from(SAVED_FILES), mutation=st.sampled_from(sorted(MUTATIONS)))
    def test_damaged_file_exits_0_2_or_3(self, tiny_saved_model, rel, mutation):
        """Any one damaged file gives exit 2 naming it before anything is simulated,
        exit 3, or exit 0 with an all-finite report."""
        cfg, model = tiny_saved_model
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            shutil.copytree(model, out)
            MUTATIONS[mutation](out / rel)
            drives = []
            drive = system._drive

            def counting_drive(*args):
                drives.append(1)
                return drive(*args)

            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
                mp.setattr(system, "_drive", counting_drive)
                code = main(["eval", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3), err.getvalue()
            if code == 2:
                assert str(out / rel) in err.getvalue()
                assert not drives
            if code == 0:
                for name in ("eval_report.csv", "eval_decoder_errors.csv"):
                    rows = (out / name).read_text().splitlines()[1:]
                    assert all(math.isfinite(float(r.split(",")[1])) for r in rows)
            else:
                assert not (out / "eval_report.csv").exists()


def copy_of(model: Path, tmp_path: Path) -> Path:
    """A copy of a saved model's folders under tmp_path."""
    shutil.copytree(model, tmp_path / "run")
    return tmp_path / "run"


class TestSavedModelIsRead:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eval_reads_every_loaded_matrix_but_init_h_ol1(self, tiny_saved_model, tmp_path):
        """Scaling entry [0, 0] of a saved matrix or regressor by 1.5 changes what eval
        writes, or makes it exit 3, for every file but init_h_ol1.csv: phase 3 fit
        init_h_ol0.csv and init_sigma_cov.csv from it, and eval reads those."""
        cfg, model = tiny_saved_model
        unread = []
        for rel in SAVED_FILES:
            if rel.endswith("meta.csv"):
                continue
            out = copy_of(model, tmp_path / rel.replace("/", "-"))
            scale_first_entry(out / rel, 1.5)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["eval", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 3), rel
            if code == 0 and all((out / f"eval_{name}").read_bytes() == (out / name).read_bytes()
                                 for name in ("report.csv", "decoder_errors.csv")):
                unread.append(rel)
        assert unread == ["policy/init_h_ol1.csv"]

    def test_singular_riccati_step_on_saved_sysid_is_3(self, tiny_saved_model, tmp_path,
                                                        capsys):
        # eval solves the Riccati equation on the saved a_hat; 1e10 at [0, 0] makes
        # R + B'PB singular in floating point
        cfg, model = tiny_saved_model
        out = copy_of(model, tmp_path)
        set_first_entry(out / "sysid" / "a_hat.csv", 1, "1e10")
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 3
        assert "DARE iteration went singular" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_decoder_value_is_3(self, tiny_saved_model, tmp_path, capsys):
        # the first row of h_0 reads 1e308 and -1e308: f_1 sums inf and -inf
        cfg, model = tiny_saved_model
        out = copy_of(model, tmp_path)
        lines = (out / "policy" / "h_0.csv").read_text().splitlines()
        lines[2] = "1e308,-1e308"
        (out / "policy" / "h_0.csv").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 3
        assert "decoder value at t=1 is not a number" in capsys.readouterr().err
        assert not (out / "eval_report.csv").exists()


# Raw values a perturbed config key may take, by the key's kind; None drops the key.
CONFIG_VALUES = {
    "int": ["-1", "0", "1", "2", "3", "7", "2.5", "1e4", "abc"],
    "float": ["nan", "inf", "-1", "0", "1e-12", "0.05", "0.5", "1", "3", "1e150", "1e300",
              "abc"],
    "instance": ["scalar-identity", "di-cubic-lift", "stable2x1-lift5", "nope"],
    "stability_witness": ["lyapunov", "value", "nope"],
    "export_trajectories": ["true", "false", "yes"],
}
CONFIG_KEYS = {**{k: "int" for k in ("n_id", "n_op", "n_init", "t_horizon", "kappa",
                                     "kappa0_override", "n_eval", "seed", "eval_seed",
                                     "metric_rollouts")},
               **{k: "float" for k in ("sigma", "epsilon", "b_bar", "psi_star", "alpha_star",
                                       "gamma_star", "r_id", "r_op")},
               **{k: k for k in ("instance", "stability_witness", "export_trajectories")}}
SMALL_STABLE = dict(instance="stable2x1-lift5", metric_rollouts=50)


def perturbations():
    """1-3 keys of the config, each dropped or set to a value of its kind."""
    return st.lists(st.sampled_from(sorted(CONFIG_KEYS)), min_size=1, max_size=3,
                    unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                        {k: st.sampled_from([None] + CONFIG_VALUES[CONFIG_KEYS[k]])
                         for k in keys}))


class TestConfigBoundary:
    # 40 pipelines of a small stable2x1-lift5 config take about 0.6 s on a 2-core VM,
    # most of them refused before phase 1; a perturbed but valid config may
    # overflow, which numpy warns about
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(perturbation=perturbations())
    def test_perturbed_config_exits_0_2_or_3(self, perturbation):
        """A config with 1-3 keys dropped or changed gives exit 0, exit 3, or exit 2
        before anything is simulated and with no --out created."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp) / "run.cfg", **{**SMALL_STABLE, **perturbation})
            out = Path(tmp) / "run"
            drives = []
            drive = system._drive

            def counting_drive(*args):
                drives.append(1)
                return drive(*args)

            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                mp.setattr(system, "_drive", counting_drive)
                code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3), err.getvalue()
            if code == 2:
                assert not out.exists(), err.getvalue()
                assert not drives, err.getvalue()


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg")
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
        for name in ("report.csv", "decoder_errors.csv"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b
