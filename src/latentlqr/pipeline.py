"""Experiment orchestration: config ingestion and the end-to-end pipeline.

Configs are flat key = value text with explicit seeds; unknown keys are
errors. The pipeline runs the three learning phases, evaluates the learned
policy against the ground-truth benchmark with paired seeds, and writes
report CSVs plus serialized models. Identical configs produce byte-identical
reports. run_pipeline alone sequences the stages and can stop after any of
them; evaluate_policy is its evaluate stage, also run on saved policies.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import rng as rngmod
from .benchmarks import make_benchmark_instance, parameter_bounds
from .control import optimal_policy
from .errors import NumericalError, ValidationError, tagged
from .evaluate import (EvalReport, align_decoder, decoder_errors_by_time, mean_stderr,
                       similarity_from_ground_truth, trajectory_costs)
from .phase1 import Phase1Config, collect_id_data, fit_coarse_decoder
from .phase2 import cost_fit_min_samples, run_sysid
from .phase3 import (Phase3Config, compute_policy, default_clip_radius, sigma_from_epsilon)
from .serialize import (export_trajectories_csv, save_phase1, save_policy, save_sysid,
                        write_decoder_errors_csv, write_report_csv)
from .system import PolicyDef, rollout, rollout_columns

_INT_KEYS = {"n_id", "n_op", "n_init", "t_horizon", "kappa", "kappa0_override",
             "n_eval", "seed", "eval_seed", "metric_rollouts"}
_FLOAT_KEYS = {"sigma", "epsilon", "b_bar", "psi_star", "alpha_star", "gamma_star",
               "r_id", "r_op"}
_STR_KEYS = {"instance", "stability_witness"}
_BOOL_KEYS = {"export_trajectories"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one pipeline run needs; seeds are explicit, never ambient."""

    instance: str
    n_id: int
    n_op: int
    t_horizon: int
    n_eval: int
    seed: int
    sigma: Optional[float] = None
    epsilon: Optional[float] = None
    n_init: Optional[int] = None
    b_bar: Optional[float] = None
    kappa: Optional[int] = None
    psi_star: Optional[float] = None
    alpha_star: Optional[float] = None
    gamma_star: Optional[float] = None
    r_id: Optional[float] = None
    r_op: Optional[float] = None
    kappa0_override: Optional[int] = None
    eval_seed: Optional[int] = None
    metric_rollouts: int = 2000
    export_trajectories: bool = False
    stability_witness: str = "lyapunov"

    def __post_init__(self):
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        for name in ("n_id", "n_op", "t_horizon", "metric_rollouts"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.n_eval < 2:
            raise ValidationError("n_eval must be >= 2: the standard errors need two rollouts")
        for name in ("seed", "eval_seed"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if (self.sigma is None) == (self.epsilon is None):
            raise ValidationError("config must set exactly one of sigma and epsilon")
        if self.sigma is not None and not (0.0 < self.sigma <= 1.0):
            raise ValidationError("sigma must lie in (0, 1]")


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse flat 'key = value' lines; '#' starts a comment; fail on unknown or repeated keys."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        if key in _INT_KEYS or key in _FLOAT_KEYS:
            kind = int if key in _INT_KEYS else float
            try:
                values[key] = kind(val)
            except ValueError:
                raise ValidationError(f"config line {lineno}: {key} = {val!r} is not "
                                      f"a valid {kind.__name__}") from None
        elif key in _STR_KEYS:
            values[key] = val
        elif key in _BOOL_KEYS:
            if val.lower() not in ("true", "false"):
                raise ValidationError(f"config line {lineno}: {key} must be true or false")
            values[key] = val.lower() == "true"
        else:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    required = {"instance", "n_id", "n_op", "t_horizon", "n_eval", "seed"}
    missing = sorted(required - values.keys())
    if missing:
        raise ValidationError(f"config is missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def load_config(path: Path, overrides: dict | None = None) -> ExperimentConfig:
    return parse_config(Path(path).read_text(), overrides)


# Stage names in run order; run_pipeline stops after the one it is given.
STAGES = ("phase1", "phase2", "phase3", "evaluate")


@dataclass
class PipelineResult:
    """What a run produced; fields of stages after its stop_after are None."""

    phase1_out: object
    estimates: object = None
    learned: object = None
    report: Optional[EvalReport] = None


def _resolve(config: ExperimentConfig):
    """Instance, bounds, and the two phase configs implied by an experiment config."""
    spec, emission, decoder_class = make_benchmark_instance(config.instance)
    bounds = parameter_bounds(spec, witness=config.stability_witness)
    kappa = config.kappa if config.kappa is not None else bounds.kappa
    if kappa < bounds.kappa:
        raise ValidationError(f"kappa = {kappa} is below the controllability index "
                              f"kappa* = {bounds.kappa} of instance {config.instance}")
    psi = config.psi_star if config.psi_star is not None else bounds.psi_star
    alpha = config.alpha_star if config.alpha_star is not None else bounds.alpha_star
    gamma = config.gamma_star if config.gamma_star is not None else bounds.gamma_star
    p1 = Phase1Config(n_id=config.n_id, kappa=kappa, psi_star=psi, alpha_star=alpha,
                      gamma_star=gamma, d_x=spec.d_x, d_u=spec.d_u, r_id=config.r_id,
                      kappa0_override=config.kappa0_override)
    need = cost_fit_min_samples(spec.d_x)
    if config.n_id < need:
        raise ValidationError(f"n_id = {config.n_id} is below the {need} samples the cost "
                              f"fit needs for d_x = {spec.d_x} of instance {config.instance}")
    b_bar = config.b_bar if config.b_bar is not None else default_clip_radius(
        spec.d_x, spec.d_u, config.n_op)
    sigma = config.sigma if config.sigma is not None else sigma_from_epsilon(
        config.epsilon, b_bar)
    try:
        r_op = config.r_op if config.r_op is not None else psi**3
    except OverflowError:
        raise ValidationError(f"psi_star = {psi} is too large: the default r_op = "
                              "psi_star**3 overflows") from None
    p3 = Phase3Config(n_op=config.n_op, sigma=sigma, t_horizon=config.t_horizon,
                      kappa=kappa, r_op=r_op, n_init=config.n_init, b_bar=b_bar)
    if p3.n_init < spec.d_x:  # the initial-state covariance would be singular
        key = "n_op (n_init unset)" if config.n_init is None else "n_init"
        raise ValidationError(f"{key} = {p3.n_init} is below d_x = {spec.d_x} of "
                              f"instance {config.instance}")
    return spec, emission, decoder_class, p1, p3


def _eval_seed(config: ExperimentConfig) -> int:
    return config.eval_seed if config.eval_seed is not None else rngmod.derive_seed(
        config.seed, rngmod.TAG_EVAL)


def run_pipeline(config: ExperimentConfig, outdir: Path | None = None,
                 stop_after: str = "evaluate") -> PipelineResult:
    """Phases I -> II -> III, then paired-seed evaluation and reporting.

    stop_after names the last stage to run, one of STAGES. When an output
    directory is given, each phase's artifacts are written as soon as they
    exist, so a failure in a later stage retains the earlier ones.
    """
    if stop_after not in STAGES:
        raise ValidationError(f"stop_after must be one of {', '.join(STAGES)}, "
                              f"got {stop_after!r}")
    started = time.perf_counter()
    spec, emission, decoder_class, p1_config, p3_config = _resolve(config)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    with tagged("pipeline stage=phase1"):
        data = collect_id_data(spec, emission, p1_config,
                               rngmod.derive_seed(config.seed, rngmod.TAG_PHASE1))
        phase1_out = fit_coarse_decoder(data.batch1, data.batch2, decoder_class, p1_config)
        batch3 = data.batch3
        del data  # batches 1 and 2 have no reader left, and batch 3 none after sysid
    if outdir is not None:
        save_phase1(outdir / "phase1", phase1_out)
    if stop_after == "phase1":
        return PipelineResult(phase1_out)
    with tagged("pipeline stage=phase2"):
        estimates = run_sysid(batch3, phase1_out.decode, spec.r)
        del batch3
    if outdir is not None:
        save_sysid(outdir / "sysid", estimates)
    if stop_after == "phase2":
        return PipelineResult(phase1_out, estimates)
    with tagged("pipeline stage=phase3"):
        learned = compute_policy(spec, emission, estimates, decoder_class, p3_config,
                                 config.seed)
    if outdir is not None:
        save_policy(outdir / "policy", learned)
    if stop_after == "phase3":
        return PipelineResult(phase1_out, estimates, learned)

    with tagged("pipeline stage=evaluate"):
        report = evaluate_policy(config, spec, emission, learned, phase1_out)
    report.wall_clock_seconds = time.perf_counter() - started

    if outdir is not None:
        write_report_csv(outdir / "report.csv", report)
        write_decoder_errors_csv(outdir / "decoder_errors.csv", report.decoder_errors)
        if config.export_trajectories:
            sample = rollout(spec, emission, learned.policy(), horizon=config.t_horizon,
                             n_traj=min(50, config.n_eval), base_seed=_eval_seed(config))
            export_trajectories_csv(outdir / "trajectories.csv", sample)
    return PipelineResult(phase1_out, estimates, learned, report)


def evaluate_policy(config: ExperimentConfig, spec, emission, learned, phase1_out) -> EvalReport:
    """Paired-seed evaluation of a learned policy on the config's eval streams.

    The learned, optimal and zero policies step together in one cost-only
    pass over n_eval rollouts, on draws made once and shared by all three,
    with costs reduced chunk by chunk; the coarse decoder is aligned to the
    true one on fresh open-loop observations y_{kappa_1}, drawn from their
    exact marginal without simulating the steps before, and each per-step
    decoder is scored against S_id f_star. The clip statistics are the masks
    recorded by the learned policy's cost pass. A non-finite figure (a finite
    model can overflow) raises NumericalError naming the first one.
    """
    pi_opt = optimal_policy(spec, emission)
    eval_seed = _eval_seed(config)
    t_h = config.t_horizon
    # one cost-only pass steps all three policies on the same draws; the gap
    # pairs the learned and optimal per-trajectory costs of those streams
    (costs_learned, clipped, checked), (costs_opt, _, _), (costs_zero, _, _) = trajectory_costs(
        spec, emission, (learned.policy(), pi_opt, PolicyDef()), t_h,
        config.n_eval, eval_seed)
    j_learned, j_learned_se = mean_stderr(costs_learned)
    j_opt, j_opt_se = mean_stderr(costs_opt)
    j_zero, j_zero_se = mean_stderr(costs_zero)
    gap, gap_se = mean_stderr(costs_learned - costs_opt)
    clip_fraction = clipped / checked if checked else 0.0

    kappa1 = phase1_out.kappa1
    s_id = similarity_from_ground_truth(phase1_out, spec)
    n_align = max(spec.d_x + 1, 2000)
    align_obs = rollout_columns(spec, emission, PolicyDef(sigma=1.0),
                               horizon=kappa1, n_traj=n_align,
                               base_seed=rngmod.derive_seed(eval_seed, rngmod.TAG_EVAL, 1),
                               obs=(kappa1,), start=kappa1)["obs"][kappa1]
    alignment = align_decoder(phase1_out.decode, emission.decode_batch, align_obs)
    n_metric = min(config.metric_rollouts, config.n_eval)
    decoder_errors = decoder_errors_by_time(
        spec, emission, learned, s_id, n_metric,
        rngmod.derive_seed(eval_seed, rngmod.TAG_EVAL, 2))

    report = EvalReport(
        j_learned=j_learned, j_learned_stderr=j_learned_se,
        j_optimal=j_opt, j_optimal_stderr=j_opt_se,
        gap=gap, gap_stderr=gap_se,
        j_zero=j_zero, j_zero_stderr=j_zero_se,
        gap_zero=j_zero - j_opt,
        decoder_align_residual=alignment.residual,
        decoder_align_sigma_min=float(np.linalg.svd(s_id, compute_uv=False)[-1]),
        decoder_errors=decoder_errors,
        clip_fraction=clip_fraction, clip_events=clipped,
        trajectories_phase12=3 * config.n_id,
        trajectories_phase3=learned.trajectories_used,
        trajectories_eval=3 * config.n_eval + n_align + n_metric,
        kappa0=phase1_out.kappa0, kappa1=kappa1, s_id=s_id)
    errors = [(f"decoder_errors at t = {t}", e) for t, e in enumerate(decoder_errors, start=1)]
    for name, value in report.rows() + errors:
        if not math.isfinite(value):
            raise NumericalError(f"evaluation gave a non-finite {name} ({value})")
    return report
