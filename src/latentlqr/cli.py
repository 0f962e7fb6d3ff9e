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

from .benchmarks import make_benchmark_instance
from .control import optimal_policy
from .errors import NumericalError, ValidationError
from .pipeline import evaluate_policy, load_config, run_pipeline
from .serialize import (export_trajectories_csv, load_phase1, load_policy, load_sysid,
                        write_decoder_errors_csv, write_report_csv)
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
    """--out, refused if it, or else its nearest existing ancestor or link, is not a directory."""
    if args.out is None:
        raise ValidationError("--out is required for this command")
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValidationError(f"--out {out}: {existing} is not a directory")
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
        policy = PolicyDef()
    elif args.policy == "optimal":
        policy = optimal_policy(spec, emission)
    else:
        policy = PolicyDef(sigma=args.sigma)
    batch = rollout(spec, emission, policy, horizon=args.horizon,
                    n_traj=args.n_traj, base_seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    export_trajectories_csv(out / "trajectories.csv", batch)
    print(f"wrote {out / 'trajectories.csv'} ({args.n_traj} trajectories, horizon {args.horizon})")


def _cmd_phases(args) -> None:
    """phase1, phase2, phase3: the pipeline stopped after that stage."""
    out = _require_out(args)
    config = _load(args)
    started = time.perf_counter()
    result = run_pipeline(config, outdir=out, stop_after=args.command)
    phase1_out = result.phase1_out
    print(f"phase1 done: kappa0={phase1_out.kappa0} kappa1={phase1_out.kappa1} "
          f"candidate={phase1_out.h_id.candidate_index}")
    if result.estimates is not None:
        print("phase2 done: estimates saved")
    if result.learned is not None:
        print(f"phase3 done: horizon {result.learned.t_horizon}, "
              f"{result.learned.trajectories_used} trajectories used")
    print(f"elapsed {time.perf_counter() - started:.1f}s")


def _print_costs(rep) -> None:
    print(f"J(learned) = {rep.j_learned:.4f} +- {rep.j_learned_stderr:.4f}")
    print(f"J(optimal) = {rep.j_optimal:.4f} +- {rep.j_optimal_stderr:.4f}")
    print(f"gap        = {rep.gap:.4f} +- {rep.gap_stderr:.4f} (zero-policy gap {rep.gap_zero:.4f})")
    print(f"clip fraction = {rep.clip_fraction:.4g}")


def _cmd_pipeline(args) -> None:
    out = _require_out(args)
    result = run_pipeline(_load(args), outdir=out)
    _print_costs(result.report)
    print(f"wall clock = {result.report.wall_clock_seconds:.1f}s; report at {out / 'report.csv'}")


def _cmd_eval(args) -> None:
    """The pipeline's evaluate stage, run on the phase1/, sysid/ and policy/ under --out."""
    out = _require_out(args)
    config = _load(args)
    spec, emission, decoder_class = make_benchmark_instance(config.instance)
    for folder, stage in (("phase1", "phase1"), ("sysid", "phase2"), ("policy", "phase3")):
        if not (out / folder).exists():
            raise ValidationError(f"no saved {folder} under {out}; run {stage} or pipeline first")
    estimates = load_sysid(out / "sysid", spec)
    learned = load_policy(out / "policy", decoder_class, spec, estimates)
    if learned.t_horizon != config.t_horizon:
        raise ValidationError(f"{out / 'policy' / 'meta.csv'}: horizon {learned.t_horizon}, "
                              f"but the config has t_horizon = {config.t_horizon}")
    phase1_out = load_phase1(out / "phase1", decoder_class, spec)
    report = evaluate_policy(config, spec, emission, learned, phase1_out)
    write_report_csv(out / "eval_report.csv", report)
    write_decoder_errors_csv(out / "eval_decoder_errors.csv", report.decoder_errors)
    _print_costs(report)
    print(f"report at {out / 'eval_report.csv'}")


_COMMANDS = {"simulate": _cmd_simulate, "phase1": _cmd_phases, "phase2": _cmd_phases,
             "phase3": _cmd_phases, "pipeline": _cmd_pipeline, "eval": _cmd_eval}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
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
