"""Command-line interface.

Subcommands: simulate, phase1, phase2, phase3, pipeline, eval. Exit codes:
0 on success, 2 on validation errors (bad config, unknown instance), 3 on
numerical failures (non-convergence, ill-conditioned covariance).
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import rng as rngmod
from .benchmarks import make_benchmark_instance
from .control import optimal_policy
from .errors import NumericalError, ValidationError
from .evaluate import align_decoder, mean_stderr, trajectory_costs
from .phase1 import collect_id_data, fit_coarse_decoder
from .phase2 import run_sysid
from .phase3 import compute_policy
from .pipeline import load_config, run_pipeline, _resolve
from .serialize import (export_trajectories_csv, load_phase1, load_policy, save_phase1,
                        save_policy, save_sysid, save_key_values)
from .system import PolicyDef, rollout


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latentlqr",
                                     description="latent-state LQR learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--instance", type=str, help="overrides the config instance")

    sim = sub.add_parser("simulate", help="roll out a policy and export trajectories")
    common(sim)
    sim.add_argument("--horizon", type=int, default=20)
    sim.add_argument("--n-traj", type=int, default=10)
    sim.add_argument("--policy", choices=("zero", "optimal", "gaussian"), default="gaussian")
    sim.add_argument("--sigma", type=float, default=1.0)

    for name, help_text in (("phase1", "run excitation and coarse-decoder learning"),
                            ("phase2", "run through system identification"),
                            ("phase3", "run through policy computation"),
                            ("pipeline", "run everything and write the report"),
                            ("eval", "evaluate a saved policy from --out")):
        common(sub.add_parser(name, help=help_text))
    return parser


def _load(args) -> tuple:
    if args.config is None:
        raise ValidationError("--config is required for this command")
    overrides = {"seed": args.seed, "instance": args.instance}
    return load_config(args.config, overrides)


def _require_out(args) -> Path:
    if args.out is None:
        raise ValidationError("--out is required for this command")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> None:
    out = _require_out(args)
    instance = args.instance
    seed = args.seed
    if args.config is not None:
        config = _load(args)
        instance, seed = config.instance, config.seed
    if instance is None or seed is None:
        raise ValidationError("simulate needs --instance and --seed (or a config)")
    spec, emission, _ = make_benchmark_instance(instance)
    if args.policy == "zero":
        policy = PolicyDef.zero(spec.d_u)
    elif args.policy == "optimal":
        policy = optimal_policy(spec, emission)
    else:
        policy = PolicyDef.open_loop_gaussian(sigma=args.sigma)
    batch = rollout(spec, emission, policy, horizon=args.horizon,
                    n_traj=args.n_traj, base_seed=seed)
    export_trajectories_csv(out / "trajectories.csv", batch)
    print(f"wrote {out / 'trajectories.csv'} ({args.n_traj} trajectories, horizon {args.horizon})")


def _run_phases(args, upto: str) -> None:
    out = _require_out(args)
    config = _load(args)
    spec, emission, decoder_class, p1_config, p3_config = _resolve(config)
    started = time.perf_counter()
    data = collect_id_data(spec, emission, p1_config,
                           rngmod.derive_seed(config.seed, rngmod.TAG_PHASE1))
    phase1_out = fit_coarse_decoder(data.batch1, data.batch2, decoder_class, p1_config)
    save_phase1(out / "phase1", phase1_out)
    print(f"phase1 done: kappa0={phase1_out.kappa0} kappa1={phase1_out.kappa1} "
          f"candidate={phase1_out.h_id.candidate_index}")
    if upto == "phase1":
        print(f"elapsed {time.perf_counter() - started:.1f}s")
        return
    estimates = run_sysid(data.batch3, phase1_out.decode, spec.r, spec.d_x)
    save_sysid(out / "sysid", estimates)
    print("phase2 done: estimates saved")
    if upto == "phase2":
        print(f"elapsed {time.perf_counter() - started:.1f}s")
        return
    learned = compute_policy(spec, emission, estimates, decoder_class, p3_config, config.seed)
    save_policy(out / "policy", learned)
    print(f"phase3 done: horizon {learned.t_horizon}, "
          f"{learned.trajectories_used} trajectories used")
    print(f"elapsed {time.perf_counter() - started:.1f}s")


def _cmd_pipeline(args) -> None:
    out = _require_out(args)
    config = _load(args)
    result = run_pipeline(config, outdir=out)
    rep = result.report
    print(f"J(learned) = {rep.j_learned:.4f} +- {rep.j_learned_stderr:.4f}")
    print(f"J(optimal) = {rep.j_optimal:.4f} +- {rep.j_optimal_stderr:.4f}")
    print(f"gap        = {rep.gap:.4f} +- {rep.gap_stderr:.4f} (zero-policy gap {rep.gap_zero:.4f})")
    print(f"clip fraction = {rep.clip_fraction:.4g}")
    print(f"wall clock = {rep.wall_clock_seconds:.1f}s; report at {out / 'report.csv'}")


def _cmd_eval(args) -> None:
    out = _require_out(args)
    config = _load(args)
    spec, emission, decoder_class = make_benchmark_instance(config.instance)
    policy_dir = out / "policy"
    if not policy_dir.exists():
        raise ValidationError(f"no saved policy under {policy_dir}; run phase3 or pipeline first")
    learned = load_policy(policy_dir, decoder_class)
    eval_seed = config.eval_seed if config.eval_seed is not None else rngmod.derive_seed(
        config.seed, rngmod.TAG_EVAL)
    t_h = min(config.t_horizon, learned.t_horizon)
    pi_opt = optimal_policy(spec, emission)
    costs_learned = trajectory_costs(spec, emission, learned.policy(), t_h,
                                     config.n_eval, eval_seed)
    costs_opt = trajectory_costs(spec, emission, pi_opt, t_h, config.n_eval, eval_seed)
    j_learned, j_se = mean_stderr(costs_learned)
    j_opt, j_opt_se = mean_stderr(costs_opt)
    gap, gap_se = mean_stderr(costs_learned - costs_opt)
    rows = [("j_learned", float(j_learned)), ("j_learned_stderr", float(j_se)),
            ("j_optimal", float(j_opt)), ("j_optimal_stderr", float(j_opt_se)),
            ("gap", float(gap)), ("gap_stderr", float(gap_se)),
            ("clip_fraction", float(learned.stack.clip_fraction()))]
    save_key_values(out / "eval_report.csv", rows)
    print(f"J(learned) = {j_learned:.4f} +- {j_se:.4f}; gap = {gap:.4f} +- {gap_se:.4f}")
    phase1_dir = out / "phase1"
    if phase1_dir.exists():
        phase1_out = load_phase1(phase1_dir, decoder_class)
        sample = rollout(spec, emission, PolicyDef.open_loop_gaussian(sigma=1.0),
                         horizon=phase1_out.kappa1, n_traj=2000,
                         base_seed=rngmod.derive_seed(eval_seed, rngmod.TAG_EVAL, 1))
        res = align_decoder(phase1_out.decode, emission.decode_batch,
                            sample.observations[:, phase1_out.kappa1])
        print(f"coarse-decoder alignment residual = {res.residual:.4g}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            _cmd_simulate(args)
        elif args.command in ("phase1", "phase2", "phase3"):
            _run_phases(args, args.command)
        elif args.command == "pipeline":
            _cmd_pipeline(args)
        elif args.command == "eval":
            _cmd_eval(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
