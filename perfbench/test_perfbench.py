"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = run.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT_UNITS = {"count", "ratio", "bytes"}

# A run of about a second. Shorter horizons fail the gap < gap_zero check:
# the decoder-free step 0 costs too large a share of the horizon.
TINY = """
instance = di-cubic-lift
n_id = 3000
n_op = 1500
t_horizon = 8
n_eval = 2000
metric_rollouts = 500
sigma = 0.15
"""


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_workload_definitions_parse():
    lq = run.import_latentlqr()
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(p.stem for p in (BENCH_DIR / "workloads").glob("*.cfg"))
    for name in names:
        config = lq.parse_config(run.workload_path(name).read_text(), {"seed": 3})
        assert isinstance(config, lq.ExperimentConfig)
        assert config.seed == 3


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]


def test_end_to_end_run_reports_every_metric(quick, tmp_path):
    record = run.bench("tiny", 5, 0.0, False, tmp_path / "w", config_text=TINY)
    result = record["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, run.MIN_RUNS, 0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len({r["sha256"] for r in record["runs"]}) == 1


def test_failed_runs_still_report_success_frac(monkeypatch, tmp_path):
    lq = run.import_latentlqr()
    config = lq.parse_config(TINY, {"seed": 5})

    def boom(config, outdir):
        raise RuntimeError("broken")

    monkeypatch.setattr(lq, "run_pipeline", boom)
    values, runs = run.end_to_end(lq, config, 0.0, time.perf_counter(), tmp_path)
    assert values == {"success_frac": 0.0}
    assert len(runs) == run.MIN_RUNS and all(r.problems for r in runs)


def test_traced_runs_repeat_their_counts(quick, tmp_path):
    records = [run.bench("tiny", 5, 0.0, True, tmp_path / f"w{i}", config_text=TINY)
               for i in range(2)]
    for record in records:
        assert record["result"]["correct"], record["runs"]
        assert list(record["result"]["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [{name: m["value"] for name, m in r["result"]["metrics"].items()
               if m["unit"] in EXACT_UNITS} for r in records]
    assert counts[0] == counts[1]
    assert counts[0]["trace.failed_spans"] == 0
    assert counts[0]["phase3.stack_step_rows"] > 0
    assert records[0]["report_sha256"] == records[1]["report_sha256"]


def test_tracer_restores_the_package():
    lq = run.import_latentlqr()
    before = (lq.pipeline.collect_id_data, lq.regression.DecoderClass.features)
    tracer = run.Tracer(run.TRACE_TARGETS)
    tracer.install()
    assert lq.pipeline.collect_id_data is not before[0]
    tracer.uninstall()
    assert (lq.pipeline.collect_id_data, lq.regression.DecoderClass.features) == before


def _write_outputs(outdir: Path, gap: str, clip: str = "0") -> None:
    outdir.mkdir()
    (outdir / "report.csv").write_text(
        f"metric,value\ngap,{gap}\ngap_zero,0.13\nclip_fraction,{clip}\n")
    (outdir / "decoder_errors.csv").write_text("t,mse\n1,0.001\n2,0.002\n")


@pytest.mark.parametrize("gap, clip, expect", [
    ("0.1", "0", None),
    ("0.2", "0", "gap"),
    ("nan", "0", "non-finite"),
    ("0.1", "0.5", "clip_fraction"),
])
def test_check_outputs(tmp_path, gap, clip, expect):
    _write_outputs(tmp_path / "out", gap, clip)
    problems, sha = run.check_outputs(tmp_path / "out", 2)
    assert len(sha) == 64
    if expect is None:
        assert problems == []
    else:
        assert any(expect in p for p in problems), problems


def test_check_outputs_missing_file(tmp_path):
    (tmp_path / "out").mkdir()
    problems, sha = run.check_outputs(tmp_path / "out", 2)
    assert sha is None and "unreadable" in problems[0]


@pytest.mark.parametrize("parent, change, better, bound, expect", [
    ([10, 10.1, 9.9, 10.2, 10, 9.8, 10.1, 10, 9.9, 10.1], [9, 9.1, 8.9, 9.2, 9, 8.8, 9.1, 9,
                                                          8.9, 9.1], "lower", 0.1, "better"),
    ([10, 10.1, 9.9, 10.2, 10, 9.8, 10.1, 10, 9.9, 10.1], [12] * 10, "lower", 0.1, "worse"),
    ([10, 10.1, 9.9, 10.2, 10, 9.8, 10.1, 10, 9.9, 10.1], [10.05] * 10, "lower", 0.1,
     "unchanged"),
    ([5, 15, 8, 12, 10, 6, 14, 9, 11, 10], [10] * 10, "lower", 0.1, "unresolved"),
    ([1.0] * 10, [0.8] * 10, "higher", 0.1, "worse"),
    ([1.0] * 10, [1.2] * 10, "higher", None, "better"),
    ([1.0] * 10, [1.0] * 10, "higher", None, "unchanged"),
    ([1, 2, 1, 2, 1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1, 2, 1, 2, 1], "higher", None,
     "unresolved"),
])
def test_compare_verdicts(parent, change, better, bound, expect):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, better, bound) == expect


def _records(values: dict) -> dict:
    """compare.load_records' shape for one workload; None marks a failed run."""
    return {("desk", 0): {seed: {} if v is None else {"total_s": v}
                          for seed, v in values.items()}}


PARENT = {s: 10.0 + 0.01 * s for s in range(10)}


@pytest.mark.parametrize("parent, change, expect, pairs", [
    (PARENT, {s: 9.0 for s in range(10)}, "better", 10),
    (PARENT, {s: None for s in range(10)}, "worse", 10),
    (PARENT, {**{s: 9.0 for s in range(10)}, 3: None}, "worse", 10),
    ({**PARENT, 0: None}, PARENT, "unchanged", 9),
])
def test_compare_counts_failed_runs_as_lost(parent, change, expect, pairs):
    spec = {"end_to_end": [{"name": "total_s", "unit": "s", "better": "lower",
                            "bound": 0.1}], "per_layer": []}
    (row,) = compare.compare(_records(parent), _records(change), spec)
    assert (row["verdict"], row["pairs"]) == (expect, pairs)


def test_load_records_drops_the_values_of_a_failed_run(tmp_path):
    lines = [json.dumps({"workload": "desk", "trace": 0, "seed": seed, "result": {
        "correct": correct, "metrics": {"total_s": {"value": 3.0, "unit": "s"}}}})
        for seed, correct in ((1, True), (2, False))]
    (tmp_path / "r.jsonl").write_text("\n".join(lines) + "\n")
    assert compare.load_records(tmp_path / "r.jsonl") == {("desk", 0): {1: {"total_s": 3.0},
                                                                        2: {}}}


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, no result is printed."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "desk", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "latentlqr sources not found" in proc.stderr
