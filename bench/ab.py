"""A/B benchmark of two source trees: a parent commit and a change.

    python3 bench/ab.py PARENT_TREE CHANGE_TREE OUTDIR [--seeds 201-210]

Each tree is a checkout of the repository (made with `git clone` or
`git archive`). For every workload named in the change tree's
BENCHMARK.json and every seed, each tree's own perfbench/run.py runs once as
a fresh process for the benchmark's run_seconds and appends its record to
OUTDIR/parent.jsonl or OUTDIR/change.jsonl; the parent runs first on odd
seeds, the change on even ones. Then one --trace 1 pair per workload runs at
the first seed (trace-parent.jsonl, trace-change.jsonl), and the change
tree's perfbench/compare.py compares each pair of files. The end-to-end
table is its own. In the trace table only the per-layer counts (unit
`count`) keep compare.py's verdict: a count repeats exactly, so one pair
decides it, while one pair of timings cannot tell a change from the host's
drift (two copies of one tree have read 16 timings worse). Every other
trace row prints its medians with "1 pair: no verdict".

Two more readings follow. For each workload, the seeds on which both trees'
report_sha256 match are counted: equal on every seed is the evidence that a
refactor leaves report.csv byte-identical. Then an interleaved set-up A/B
runs in this process, which has imported no package code before it: after
one untimed warm-up of each tree, SETUP_PAIRS pairs alternate the trees'
`import latentlqr` + `make_benchmark_instance` + `parameter_bounds` on the
first workload's instance, in the order sides() gives, and the medians,
quartiles and the change's win count are printed. Fresh-process set-up
timings drift with the host by more than a change of set-up code moves
them; pairs taken back to back in one process share that drift. Last, the
line count of each tree's src/latentlqr modules and the net change are
printed. All three readings go to OUTDIR/summary.json.

OUTDIR/runner.json records whether PYTHONDONTWRITEBYTECODE was set, since
bytecode compilation is about half of setup_s when it is. The exit code is
1 if any invocation failed, and 2 if OUTDIR already holds records.

Before claiming a speed change under about 10%, measure the sitting's own
noise with an A/A session: run `bench/ab.py PARENT PARENT_COPY OUT` on two
copies of the parent tree in the same sitting as the A/B session, and record
that session beside the claim. Host speed drifts within a sitting, and one
10-pair session has favoured one side by about 8% with no code on the path
changed.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RECORDS = ("parent.jsonl", "change.jsonl", "trace-parent.jsonl", "trace-change.jsonl")
SETUP_PAIRS = 100


def parse_seeds(text: str) -> list[int]:
    """'201-210' or '7': an inclusive range of non-negative seeds."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read N or N-M, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"seeds must read N or N-M with 0 <= N <= M, got {text!r}")
    return list(range(lo, hi + 1))


def sides(seed: int) -> tuple[str, str]:
    """The run order of one pair: the parent first on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int,
            record: Path) -> bool:
    """One fresh-process perfbench/run.py invocation of a tree; True if it passed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--record", str(record)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{record.name:20s} {workload:13s} seed {seed:<5d} exit {proc.returncode}  {tail[0]}",
          flush=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, flush=True)
    return proc.returncode == 0


def trace_rows(tree: Path, out: Path, spec: dict) -> list[dict]:
    """The trace pair's rows from tree's perfbench/compare.py, every verdict but a
    count's replaced by "1 pair: no verdict"; none if a side wrote no record."""
    files = [out / f"trace-{side}.jsonl" for side in ("parent", "change")]
    if not all(f.exists() for f in files):
        return []
    loader = importlib.util.spec_from_file_location("perfbench_compare",
                                                    tree / "perfbench" / "compare.py")
    compare = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(compare)
    rows = compare.compare(*map(compare.load_records, files), spec)
    for row in rows:
        if row["unit"] != "count":
            row["verdict"] = "1 pair: no verdict"
    return rows


def equal_reports(out: Path, workloads: list[str]) -> dict:
    """{workload: [seeds whose two report_sha256 values match, seeds run by both]}."""
    shas = {}
    for side in ("parent", "change"):
        path = out / f"{side}.jsonl"
        for line in (path.read_text().splitlines() if path.exists() else []):
            record = json.loads(line)
            shas.setdefault((record["workload"], record["seed"]), {})[side] = \
                record["report_sha256"]
    counts = {w: [0, 0] for w in workloads}
    for (workload, _), pair in shas.items():
        if len(pair) == 2:
            counts[workload][1] += 1
            counts[workload][0] += pair["parent"] is not None and pair["parent"] == pair["change"]
    return counts


def src_lines(trees: dict) -> dict:
    """{side: {module: lines}} of each tree's src/latentlqr/*.py, and the net
    change in lines from the parent to the change."""
    lines = {side: {path.name: len(path.read_text().splitlines())
                    for path in sorted((tree / "src" / "latentlqr").glob("*.py"))}
             for side, tree in trees.items()}
    return {**lines, "net": sum(lines["change"].values()) - sum(lines["parent"].values())}


def workload_instance(tree: Path, workload: str) -> tuple[str, str]:
    """(instance, stability_witness) of a perfbench workload config."""
    values = {"stability_witness": "lyapunov"}
    for line in (tree / "perfbench" / "workloads" / f"{workload}.cfg").read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        values[key.strip()] = value.strip()
    return values["instance"], values["stability_witness"]


def setup_once(tree: Path, instance: str, witness: str) -> float:
    """Seconds to import latentlqr afresh from tree's src/, build the instance
    and its parameter bounds, as perfbench's setup_s times them."""
    src = str(tree / "src")
    for name in [n for n in sys.modules if n == "latentlqr" or n.startswith("latentlqr.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        started = time.perf_counter()
        lq = importlib.import_module("latentlqr")
        spec, _, _ = lq.make_benchmark_instance(instance)
        lq.parameter_bounds(spec, witness=witness)
        elapsed = time.perf_counter() - started
    finally:
        sys.path.remove(src)
    if not Path(lq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported latentlqr from {lq.__file__}, not from {src}")
    return elapsed


def setup_ab(trees: dict, instance: str, witness: str) -> dict:
    """Interleaved set-up timings of both trees after one untimed warm-up of each."""
    for tree in trees.values():
        setup_once(tree, instance, witness)
    times = {"parent": [], "change": []}
    for i in range(1, SETUP_PAIRS + 1):
        for side in sides(i):
            times[side].append(setup_once(trees[side], instance, witness))
    summary = {side: {"median_s": statistics.median(t),
                      "quartiles_s": statistics.quantiles(t, n=4)[::2]}
               for side, t in times.items()}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {"instance": instance, "pairs": SETUP_PAIRS, "change_faster": wins, **summary,
            "times_s": times}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("201-210"))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    out = args.outdir.resolve()
    if any((out / name).exists() for name in RECORDS):
        print(f"{out} already holds records; choose an empty directory", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    (out / "runner.json").write_text(json.dumps({
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seeds": args.seeds, "workloads": workloads, "seconds": seconds}, indent=1) + "\n")

    ok = True
    for workload in workloads:
        for seed in args.seeds:
            for side in sides(seed):
                ok &= run_one(trees[side], workload, seed, seconds, 0, out / f"{side}.jsonl")
    for workload in workloads:
        seed = args.seeds[0]
        for side in sides(seed):
            ok &= run_one(trees[side], workload, seed, seconds, 1, out / f"trace-{side}.jsonl")
    compare = subprocess.run([sys.executable, "perfbench/compare.py", str(out / "parent.jsonl"),
                              str(out / "change.jsonl")], cwd=trees["change"])
    ok &= compare.returncode == 0
    print("trace pair (per-layer):")
    for r in trace_rows(trees["change"], out, spec):
        print(f"{r['workload']:13s} {r['metric']:32s} parent {r['parent'][1]:12.6g}  "
              f"change {r['change'][1]:12.6g}  {r['wins']:d}/{r['pairs']:d}  "
              f"{r['verdict']} ({r['unit']})")

    counts = equal_reports(out, workloads)
    for workload, (equal, total) in counts.items():
        print(f"report.csv bytes: {workload:13s} equal on {equal}/{total} seeds")
    setup = setup_ab(trees, *workload_instance(trees["change"], workloads[0]))
    print(f"set-up A/B ({setup['instance']}, {setup['pairs']} interleaved pairs, one process):")
    for side in ("parent", "change"):
        q1, q3 = setup[side]["quartiles_s"]
        print(f"  {side:6s} median {setup[side]['median_s']:.4f} s  "
              f"quartiles {q1:.4f}-{q3:.4f} s")
    print(f"  change faster in {setup['change_faster']}/{setup['pairs']} pairs")
    lines = src_lines(trees)
    print("src/latentlqr lines (parent -> change):")
    for module in sorted(lines["parent"].keys() | lines["change"].keys()):
        before, after = lines["parent"].get(module, 0), lines["change"].get(module, 0)
        print(f"  {module:16s} {before:5d} -> {after:5d}  ({after - before:+d})")
    print(f"  {'total':16s} {sum(lines['parent'].values()):5d} -> "
          f"{sum(lines['change'].values()):5d}  ({lines['net']:+d})")
    (out / "summary.json").write_text(json.dumps(
        {"report_sha256_equal": counts, "setup_ab": setup, "src_lines": lines}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
