"""bench/ab.py: the trace pair's table gives a verdict to counts alone, and the
src line counts are read per module."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "bench" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_trace(path: Path, metrics: dict) -> None:
    record = {"workload": "desk", "trace": 1, "seed": 1,
              "result": {"correct": True,
                         "metrics": {name: {"value": v} for name, v in metrics.items()}}}
    path.write_text(json.dumps(record) + "\n")


def test_one_trace_pair_gives_counts_a_verdict_and_timings_none(tmp_path):
    write_trace(tmp_path / "trace-parent.jsonl",
                {"system.rollout_calls": 7, "regression.fits": 4, "phase3.collect_s": 0.30})
    write_trace(tmp_path / "trace-change.jsonl",
                {"system.rollout_calls": 7, "regression.fits": 3, "phase3.collect_s": 0.10})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {r["metric"]: r for r in load_ab().trace_rows(ROOT, tmp_path, spec)}
    assert rows["system.rollout_calls"]["verdict"] == "unchanged"
    assert rows["regression.fits"]["verdict"] == "better"
    assert rows["phase3.collect_s"]["verdict"] == "1 pair: no verdict"
    assert rows["phase3.collect_s"]["change"][1] == 0.10


def test_a_side_without_trace_records_gives_no_rows(tmp_path):
    write_trace(tmp_path / "trace-parent.jsonl", {"system.rollout_calls": 7})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert load_ab().trace_rows(ROOT, tmp_path, spec) == []


def test_src_lines_per_module_and_net(tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree, modules in ((trees["parent"], {"a.py": "1\n2\n3\n", "b.py": "1\n"}),
                          (trees["change"], {"a.py": "1\n", "c.py": "1\n2\n"})):
        (tree / "src" / "latentlqr").mkdir(parents=True)
        for name, text in modules.items():
            (tree / "src" / "latentlqr" / name).write_text(text)
    (trees["change"] / "src" / "latentlqr" / "notes.txt").write_text("1\n2\n3\n")
    assert load_ab().src_lines(trees) == {"parent": {"a.py": 3, "b.py": 1},
                                          "change": {"a.py": 1, "c.py": 2}, "net": -1}
