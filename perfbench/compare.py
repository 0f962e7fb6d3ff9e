"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --record parent.jsonl
    ...   (ten or more seeds per workload, on each commit, alternating sides)
    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records run.py --record appended, one per invocation.
Runs pair up by (workload, trace mode, seed). An invocation that failed
(result "correct" false) has no values; a pair whose parent run passed and
whose change run failed is lost. For every workload and metric the table
gives each side's median and quartiles, the pairs the change won, and a
verdict, by the first of these rules that holds:

  worse       the change lost a pair, or failed every run;
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  otherwise, when either side's interquartile range exceeds the
              metric's bound as a share of its median, unless every change
              run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   within the bound.

Per-layer metrics have no bound: they read better or worse by the pairs rule
alone, unchanged when every pair is equal (counts repeat exactly), and
unresolved otherwise. Bounds and directions come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_records(path: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from a JSON-lines file.

    A failed invocation keeps its seed with no values.
    """
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        result = rec["result"]
        metrics = {name: m["value"] for name, m in result["metrics"].items()
                   if result["correct"] and m["value"] is not None}
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None, lost: int = 0) -> str:
    if lost or not change:
        return "worse"
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    differ = abs(c_med - p_med) > p_q3 - p_q1
    if pairs and wins >= WIN_SHARE * len(pairs) and differ:
        return "better"
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and differ:
            return "worse"
        return "unchanged" if pairs and all(p == c for p, c in pairs) else "unresolved"
    scale = abs(p_med) or 1.0
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (p_med - c_med) / scale > bound:
        return "worse"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    kinds = {0: spec["end_to_end"], 1: spec["per_layer"]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for metric in kinds[trace]:
            name = metric["name"]
            p_runs = {s: m[name] for s, m in parent[key].items() if name in m}
            c_runs = {s: m[name] for s, m in change[key].items() if name in m}
            if not p_runs:
                continue
            pairs = [(p_runs[s], c_runs[s]) for s in sorted(set(p_runs) & set(c_runs))]
            lost = sum(1 for s in p_runs if s in change[key] and s not in c_runs)
            p_vals, c_vals = list(p_runs.values()), list(c_runs.values())
            sign = 1.0 if metric["better"] == "higher" else -1.0
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": quartiles(p_vals),
                "change": quartiles(c_vals) if c_vals else (float("nan"),) * 3,
                "pairs": len(pairs) + lost,
                "wins": sum(1 for p, c in pairs if sign * (c - p) > 0),
                "verdict": verdict(p_vals, c_vals, pairs, metric["better"],
                                   metric.get("bound"), lost),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    print(f"{'workload':13s} {'metric':32s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>7s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:13s} {r['metric']:32s} "
              f"{p[1]:12.6g} [{p[0]:9.4g}, {p[2]:9.4g}] {c[1]:12.6g} [{c[0]:9.4g}, {c[2]:9.4g}] "
              f"{r['wins']:3d}/{r['pairs']:<3d}  {r['verdict']} ({r['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
