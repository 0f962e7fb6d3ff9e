"""Benchmark of the latent-LQR learner on one named workload.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

The workload is a latentlqr config file, perfbench/workloads/<name>.cfg; the
seed becomes the config's `seed`. The unmodified latentlqr.pipeline.run_pipeline
runs from this single process on the sources under src/.

--trace 0 times set-up, then repeats whole pipeline runs until --seconds is
used up (at least two) and reports the end-to-end metrics of BENCHMARK.json:
medians over the runs for the timings, the run's own report for the quality
figures. --trace 1 runs the pipeline once with spans around every layer's
public calls and once without, checks that both write the same report.csv,
and reports the per-layer metrics.

Every run's outputs are checked (see check_outputs); a run that raises or
fails a check counts as failed. The last line of standard output is the
result object; the line before it is the full record (environment, config,
per-run figures), which --record also appends to a JSON-lines file for
perfbench/compare.py.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from spans import (CLOCK_TARGETS, TRACE_TARGETS, Tracer, layer_metrics, peak_rss_mb,
                   stage_times)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"

SETUP_REPEATS = 5   # timed set-ups, after one untimed warm-up
MIN_RUNS = 2        # pipeline runs per untraced invocation; two to compare bytes
CLIP_LIMIT = 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_path(name: str) -> Path:
    return BENCH_DIR / "workloads" / f"{name}.cfg"


def import_latentlqr():
    """Import latentlqr afresh from this checkout's src/, dropping any loaded copy."""
    package = SRC / "latentlqr"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"latentlqr sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "latentlqr" or n.startswith("latentlqr.")]:
        del sys.modules[name]
    lq = importlib.import_module("latentlqr")
    if Path(lq.__file__).resolve().parent != package:
        raise SystemExit(f"imported latentlqr from {lq.__file__}, not from {package}")
    return lq


def measure_setup(instance: str, witness: str):
    """Seconds to import latentlqr, build the instance and its parameter bounds."""
    started = time.perf_counter()
    lq = import_latentlqr()
    spec, _, _ = lq.make_benchmark_instance(instance)
    lq.parameter_bounds(spec, witness=witness)
    return time.perf_counter() - started, lq


def _read_csv(path: Path, header: tuple[str, str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return rows[1:]


def check_outputs(outdir: Path, t_horizon: int) -> tuple[list[str], str | None]:
    """Problems found in a run's report files, and the sha256 of report.csv.

    Both CSVs must exist and parse, every value must be finite, the learned
    policy must beat the zero policy (gap < gap_zero), and at most CLIP_LIMIT
    of the evaluation decoder steps may be clipped.
    """
    try:
        report = {name: float(value)
                  for name, value in _read_csv(outdir / "report.csv", ("metric", "value"))}
        errors = [(int(t), float(mse))
                  for t, mse in _read_csv(outdir / "decoder_errors.csv", ("t", "mse"))]
        gap, gap_zero, clip = report["gap"], report["gap_zero"], report["clip_fraction"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable outputs: {exc!r}"], None
    problems = []
    bad = [name for name, value in report.items() if not math.isfinite(value)]
    if bad:
        problems.append(f"non-finite report metrics: {bad}")
    if [t for t, _ in errors] != list(range(1, t_horizon + 1)):
        problems.append("decoder_errors.csv does not list t = 1..T")
    if not all(math.isfinite(mse) for _, mse in errors):
        problems.append("non-finite decoder errors")
    if not gap < gap_zero:
        problems.append(f"gap {gap} is not below gap_zero {gap_zero}")
    if clip > CLIP_LIMIT:
        problems.append(f"clip_fraction {clip} exceeds {CLIP_LIMIT}")
    return problems, hashlib.sha256((outdir / "report.csv").read_bytes()).hexdigest()


@dataclass
class Run:
    total_s: float
    problems: list = field(default_factory=list)
    sha256: str | None = None
    learn_s: float | None = None
    eval_s: float | None = None


def run_once(lq, config, outdir: Path, tracer: Tracer):
    """One timed run_pipeline call; returns the Run and the pipeline result."""
    shutil.rmtree(outdir, ignore_errors=True)
    tracer.reset()
    started = time.perf_counter()
    try:
        result = lq.run_pipeline(config, outdir)
    except Exception:  # a failing run is counted; the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        return Run(total_s=time.perf_counter() - started, problems=["run_pipeline raised"]), None
    total = time.perf_counter() - started
    problems, sha = check_outputs(outdir, config.t_horizon)
    return Run(total_s=total, problems=problems, sha256=sha, **stage_times(tracer.spans)), result


def greedy_gap(lq, config, learned) -> float:
    """Gap of the learned decoders run with sigma = 0, on the pipeline's eval seed."""
    spec, emission, _ = lq.make_benchmark_instance(config.instance)
    eval_seed = config.eval_seed if config.eval_seed is not None else lq.rng.derive_seed(
        config.seed, lq.rng.TAG_EVAL)
    gap, _ = lq.estimate_gap(spec, emission, learned.greedy_policy(),
                             lq.optimal_policy(spec, emission), config.t_horizon,
                             config.n_eval, eval_seed)
    return gap


def end_to_end(lq, config, seconds: float, started: float, workdir: Path):
    """Repeat whole pipeline runs until the time is used; returns (values, runs)."""
    clock = Tracer(CLOCK_TARGETS)
    clock.install()
    runs, report, greedy = [], None, None
    try:
        while True:
            run, result = run_once(lq, config, workdir / "run", clock)
            runs.append(run)
            if report is None and result is not None and not run.problems:
                report, greedy = result.report, greedy_gap(lq, config, result.learned)
            del result
            elapsed = time.perf_counter() - started
            if (len(runs) >= MIN_RUNS
                    and elapsed + statistics.median(r.total_s for r in runs) > seconds):
                break
    finally:
        clock.uninstall()
    reference = next((r.sha256 for r in runs if not r.problems), None)
    for r in runs:
        if not r.problems and r.sha256 != reference:
            r.problems.append("report.csv differs from an earlier run of the same seed")
    good = [r for r in runs if not r.problems]
    success = {"success_frac": len(good) / len(runs)}
    if not good:
        return success, runs
    learn_s = statistics.median(r.learn_s for r in good)
    return {
        "learn_s": learn_s,
        "eval_s": statistics.median(r.eval_s for r in good),
        "total_s": statistics.median(r.total_s for r in good),
        "learn_traj_per_s": (report.trajectories_phase12 + report.trajectories_phase3) / learn_s,
        "peak_rss_mb": peak_rss_mb(),
        "gap": report.gap,
        "greedy_gap": greedy,
        "unclipped_frac": 1.0 - report.clip_fraction,
        **success,
    }, runs


def per_layer(lq, config, workdir: Path, spans_path: Path):
    """A traced run, then an untraced one on the same seed; returns (values, runs).

    The traced run goes first so that the resident-set high-water marks it
    samples at stage ends belong to it alone.
    """
    tracer = Tracer(TRACE_TARGETS)
    tracer.install()
    try:
        traced, result = run_once(lq, config, workdir / "traced", tracer)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.to_json()))
    values = {}
    if not traced.problems:
        values = layer_metrics(tracer.spans, workdir / "traced")
        values["evaluate.decoder_err_max"] = float(max(result.report.decoder_errors))
    del result
    clock = Tracer(CLOCK_TARGETS)
    clock.install()
    try:
        untraced, _ = run_once(lq, config, workdir / "untraced", clock)
    finally:
        clock.uninstall()
    if not traced.problems and traced.sha256 != untraced.sha256:
        traced.problems.append("traced report.csv differs from the untraced run")
    if traced.problems:
        return {}, [traced, untraced]
    values["trace.total_s"] = traced.total_s
    return values, [traced, untraced]


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
          config_text: str | None = None) -> dict:
    """One invocation; returns the record whose "result" is the line to print."""
    started = time.perf_counter()
    spec = load_benchmark()
    if config_text is None:
        config_text = workload_path(workload).read_text()
    lq = import_latentlqr()
    config = lq.parse_config(config_text, {"seed": seed})
    # The first set-up after an idle spell runs up to three times slower
    # (fresh heap pages, cold caches, uncompiled bytecode); it is a warm-up
    # and only the later ones are timed.
    setup_times = []
    for _ in range(1 + SETUP_REPEATS):
        elapsed, lq = measure_setup(config.instance, config.stability_witness)
        setup_times.append(elapsed)
    warmup, setup_times = setup_times[0], setup_times[1:]
    config = lq.parse_config(config_text, {"seed": seed})

    if trace:
        values, runs = per_layer(lq, config, workdir,
                                 workdir.parent / f"spans-{workload}-{seed}.json")
        wanted = spec["per_layer"]
    else:
        values, runs = end_to_end(lq, config, seconds, started, workdir)
        values["setup_s"] = statistics.median(setup_times)
        wanted = spec["end_to_end"]
    failed = sum(1 for r in runs if r.problems)
    names = {m["name"] for m in wanted}
    if set(values) - names or (not failed and set(values) != names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ names)}")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "config": asdict(config), "env": environment(),
        "report_sha256": next((r.sha256 for r in runs if r.sha256), None),
        "setup_warmup_s": warmup, "setup_times_s": setup_times,
        "runs": [asdict(r) for r in runs],
        # traced minus untraced total_s of one seed; information, not a metric,
        # because it is smaller than the run-to-run noise
        "trace_overhead_s": runs[0].total_s - runs[1].total_s if trace else None,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the full record as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not workload_path(args.workload).is_file():
        parser.error(f"unknown workload {args.workload!r}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    result = record.pop("result")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
