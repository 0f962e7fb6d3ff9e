"""Spans around calls into latentlqr, recorded from outside the package.

A Tracer swaps a function or method for a wrapper in every latentlqr module
namespace where callers look it up (for a method: on its class). Each call
appends a Span (name, layer, start, end, parent) to an in-memory list, and a
probe may attach counts taken from the call's arguments or result. Nothing
under src/ changes; uninstall() puts the originals back.

Two target lists exist. CLOCK_TARGETS are the six pipeline stage calls that
every run records, so learn_s and eval_s come from untraced runs at a cost of
a dozen clock reads. TRACE_TARGETS add the public functions and methods of
every layer for the traced run that yields the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    layer: str
    parent: int          # index into Tracer.spans; -1 at top level
    start: float
    end: float = 0.0
    failed: bool = False  # the call ended in an exception
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss(args, result) -> dict:
    return {"rss_mb": peak_rss_mb()}


def _candidates(args, result) -> dict:
    return {"candidates": len(result[2])}


def _iterations(args, result) -> dict:
    return {"iterations": result.iterations}


def _draws(args, result) -> dict:
    return {"draws": int(result.size)}


def _rows(args, result) -> dict:
    return {"rows": int(result.shape[0])}


def _traj_steps(args, result) -> dict:
    return {"traj_steps": int(args["n_traj"]) * int(args["horizon"])}


def _truth(reg) -> bool:
    return reg.candidate_index == reg.decoder_class.contains_truth


def _fit(args, result) -> dict:
    return {"clamped": bool(result.clamped), "truth": _truth(result)}


def _step_truth(args, result) -> dict:
    return {"truth": _truth(result[1])}


def _step_rows(args, result) -> dict:
    return {"rows": int(result[0].shape[0])}


# (layer, dotted path, probe). A probe maps (bound arguments, result) to counts.
CLOCK_TARGETS = (
    ("phase1", "latentlqr.phase1.collect_id_data", None),
    ("phase1", "latentlqr.phase1.fit_coarse_decoder", _rss),
    ("phase2", "latentlqr.phase2.run_sysid", None),
    ("phase3", "latentlqr.phase3.compute_policy", _rss),
    ("control", "latentlqr.control.optimal_policy", None),
    ("evaluate", "latentlqr.evaluate.decoder_errors_by_time", _rss),
)

TRACE_TARGETS = CLOCK_TARGETS + (
    ("pipeline", "latentlqr.pipeline.run_pipeline", None),
    ("benchmarks", "latentlqr.benchmarks.make_benchmark_instance", _candidates),
    ("benchmarks", "latentlqr.benchmarks.parameter_bounds", None),
    ("control", "latentlqr.control.solve_dare", _iterations),
    ("control", "latentlqr.control.solve_lyapunov", None),
    ("control", "latentlqr.control.strong_stability_cert", None),
    ("control", "latentlqr.control.controllability", None),
    ("control", "latentlqr.control.open_loop_state_cov", None),
    ("control", "latentlqr.control.psd_project", None),
    ("rng", "latentlqr.rng.noise_block", _draws),
    ("system", "latentlqr.system.rollout", _traj_steps),
    ("system", "latentlqr.system.rollout_columns", _traj_steps),
    ("system", "latentlqr.system.EmissionModel.emit_batch", _rows),
    ("regression", "latentlqr.regression.erm_fit", _fit),
    ("regression", "latentlqr.regression.erm_fit_increment", _fit),
    ("regression", "latentlqr.regression.DecoderClass.features", _rows),
    ("phase3", "latentlqr.phase3.collect_onpolicy", None),
    ("phase3", "latentlqr.phase3.fit_residual_regressors", _step_truth),
    ("phase3", "latentlqr.phase3.learn_initial_state", None),
    ("phase3", "latentlqr.phase3.DecoderStack.step", _step_rows),
    ("evaluate", "latentlqr.evaluate.estimate_cost", None),
    ("evaluate", "latentlqr.evaluate.estimate_gap", None),
    ("evaluate", "latentlqr.evaluate.align_decoder", None),
    ("evaluate", "latentlqr.evaluate.similarity_from_ground_truth", None),
    ("serialize", "latentlqr.serialize.save_phase1", None),
    ("serialize", "latentlqr.serialize.save_sysid", None),
    ("serialize", "latentlqr.serialize.save_policy", None),
    ("serialize", "latentlqr.serialize.write_report_csv", None),
    ("serialize", "latentlqr.serialize.write_decoder_errors_csv", None),
    ("serialize", "latentlqr.serialize.export_trajectories_csv", None),
)


class Tracer:
    """Records spans for the targets it is installed on; one per run."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def _wrap(self, layer: str, name: str, fn: Callable, probe: Optional[Callable]):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name=name, layer=layer,
                        parent=self._stack[-1] if self._stack else -1,
                        start=time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a latentlqr module or class holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "latentlqr" or n.startswith("latentlqr."))]
        for layer, path, probe in self.targets:
            parts = path.split(".")  # latentlqr, module, [Class,] function
            owner = importlib.import_module(".".join(parts[:2]))
            name = ".".join(parts[1:])
            if len(parts) == 4:  # a method has one lookup site, its class
                owner = getattr(owner, parts[2])
                original = vars(owner)[parts[3]]
                self._set(owner, parts[3], self._wrap(layer, name, original, probe))
                continue
            original = getattr(owner, parts[2])
            wrapper = self._wrap(layer, name, original, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "layer": s.layer, "parent": s.parent, "start": s.start,
                 "end": s.end, "failed": s.failed, **s.info} for s in self.spans]


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def stage_times(spans: list[Span]) -> dict:
    """learn_s and eval_s of one pipeline run from its clock spans.

    learn_s sums the four learning calls (phases 1-3 without the artifact
    writes between them). eval_s runs from the optimal-policy build that
    opens the evaluate stage to the end of the decoder-error pass that
    closes it.
    """
    learn = _named(spans, "phase1.collect_id_data") + _named(spans, "phase1.fit_coarse_decoder") \
        + _named(spans, "phase2.run_sysid") + _named(spans, "phase3.compute_policy")
    start, end = eval_window(spans)
    return {"learn_s": _total(learn), "eval_s": end - start}


def eval_window(spans: list[Span]) -> tuple[float, float]:
    learned_at = max(s.end for s in _named(spans, "phase3.compute_policy"))
    start = min(s.start for s in _named(spans, "control.optimal_policy") if s.start >= learned_at)
    end = max(s.end for s in _named(spans, "evaluate.decoder_errors_by_time"))
    return start, end


def layer_metrics(spans: list[Span], outdir: Path) -> dict:
    """Per-layer metrics of one traced pipeline run (see perfbench/README.md)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(index: int) -> float:
        return spans[index].duration - _total(children.get(index, []))

    def outermost(layer: str) -> list[Span]:
        """Spans of a layer not nested inside another span of the same layer."""
        out = []
        for s in spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p >= 0 and spans[p].layer != layer:
                p = spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def indexed(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name in names]

    def ratio(flags: list[bool]) -> float:
        return sum(flags) / len(flags) if flags else 0.0

    rollouts = indexed("system.rollout", "system.rollout_columns")
    fits = indexed("regression.erm_fit", "regression.erm_fit_increment")
    features = _named(spans, "regression.DecoderClass.features")
    noise = _named(spans, "rng.noise_block")
    emits = _named(spans, "system.EmissionModel.emit_batch")
    steps = _named(spans, "phase3.DecoderStack.step")
    policy_index = indexed("phase3.compute_policy")
    eval_start, eval_end = eval_window(spans)
    eval_rollouts = [spans[i] for i in rollouts if eval_start <= spans[i].start <= eval_end]
    last = {name: _named(spans, name)[-1].info["rss_mb"] for name in (
        "phase1.fit_coarse_decoder", "phase3.compute_policy", "evaluate.decoder_errors_by_time")}

    return {
        "benchmarks.build_s": _total(_named(spans, "benchmarks.make_benchmark_instance")),
        "benchmarks.candidates": _named(spans, "benchmarks.make_benchmark_instance")[-1]
        .info["candidates"],
        "control.solve_s": _total(outermost("control")),
        "control.dare_iterations": sum(s.info["iterations"]
                                       for s in _named(spans, "control.solve_dare")),
        "control.lyapunov_calls": len(_named(spans, "control.solve_lyapunov")),
        "rng.noise_draws": sum(s.info["draws"] for s in noise),
        "rng.noise_s": _total(noise),
        "system.rollout_calls": len(rollouts),
        "system.traj_steps": sum(spans[i].info["traj_steps"] for i in rollouts),
        "system.rollout_self_s": sum(self_time(i) for i in rollouts),
        "system.emit_rows": sum(s.info["rows"] for s in emits),
        "system.emit_s": _total(emits),
        "regression.fits": len(fits),
        "regression.fit_self_s": sum(self_time(i) for i in fits),
        "regression.feature_calls": len(features),
        "regression.feature_rows": sum(s.info["rows"] for s in features),
        "regression.feature_s": _total(features),
        "regression.clamped_ratio": ratio([spans[i].info["clamped"] for i in fits]),
        "regression.truth_selected_ratio": ratio([spans[i].info["truth"] for i in fits]),
        "phase1.collect_s": _total(_named(spans, "phase1.collect_id_data")),
        "phase1.fit_s": _total(_named(spans, "phase1.fit_coarse_decoder")),
        "phase2.sysid_s": _total(_named(spans, "phase2.run_sysid")),
        "phase3.collect_s": _total(_named(spans, "phase3.collect_onpolicy")),
        "phase3.regress_s": _total(_named(spans, "phase3.fit_residual_regressors")),
        # the initial-state stage is the one rollout compute_policy makes
        # itself plus the subroutine that fits on it
        "phase3.initial_s": _total(_named(spans, "phase3.learn_initial_state"))
        + sum(spans[i].duration for i in rollouts if spans[i].parent in policy_index),
        "phase3.stack_step_rows": sum(s.info["rows"] for s in steps),
        "phase3.stack_step_s": _total(steps),
        "phase3.truth_selected_steps": sum(
            s.info["truth"] for s in _named(spans, "phase3.fit_residual_regressors")),
        "evaluate.rollouts": len(eval_rollouts),
        "evaluate.traj_steps": sum(s.info["traj_steps"] for s in eval_rollouts),
        "evaluate.cost_s": _total(_named(spans, "evaluate.estimate_cost")
                                  + _named(spans, "evaluate.estimate_gap")),
        "evaluate.decoder_err_s": _total(_named(spans, "evaluate.decoder_errors_by_time")),
        "serialize.write_s": _total(outermost("serialize")),
        "serialize.bytes_written": sum(p.stat().st_size for p in outdir.rglob("*")
                                       if p.is_file()),
        "pipeline.rss_phase1_mb": last["phase1.fit_coarse_decoder"],
        "pipeline.rss_phase3_mb": last["phase3.compute_policy"],
        "pipeline.rss_eval_mb": last["evaluate.decoder_errors_by_time"],
        "trace.spans": len(spans),
        "trace.failed_spans": sum(s.failed for s in spans),
    }
