"""A/B benchmark of two source trees: a parent commit and a change.

    python3 bench/ab.py PARENT_TREE CHANGE_TREE OUTDIR [--seeds 201-210]

Each tree is a checkout of the repository (made with `git clone` or
`git archive`). For every workload named in the change tree's
BENCHMARK.json and every seed, each tree's own perfbench/run.py runs once as
a fresh process for the benchmark's run_seconds and appends its record to
OUTDIR/parent.jsonl or OUTDIR/change.jsonl; the parent runs first on odd
seeds, the change on even ones. Then one --trace 1 pair per workload runs at
the first seed (trace-parent.jsonl, trace-change.jsonl), and the change
tree's perfbench/compare.py prints both comparisons.

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
import json
import os
import subprocess
import sys
from pathlib import Path

RECORDS = ("parent.jsonl", "change.jsonl", "trace-parent.jsonl", "trace-change.jsonl")


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
    for prefix in ("", "trace-"):
        compare = subprocess.run([sys.executable, "perfbench/compare.py",
                                  str(out / f"{prefix}parent.jsonl"),
                                  str(out / f"{prefix}change.jsonl")], cwd=trees["change"])
        ok &= compare.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
