"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are ``results.jsonl`` files written by
``run.py`` (or directories holding them). Untraced runs only. For every
workload and end-to-end metric it prints each side's median and
quartiles and a verdict, from the first of these rules that holds:

1. ``better``: every change run beats every base run, and the medians
   differ by more than the base's own quartile spread;
2. ``worse``: every change run is worse than every base run, and the
   medians differ by more than the base's quartile spread; or the
   change's median is worse than the base's by more than the bound
   plus the run-to-run spread (quartile distance over median, the
   wider of the two sides);
3. ``unresolved``: that spread is wider than the metric's bound;
4. ``worse``: the change's median is worse by more than the bound;
5. ``better``: the change wins at least nine tenths of the runs paired
   by seed (ties count for neither), and its median is better by more
   than the base's quartile spread;
6. ``within``.

Bounds and directions come from BENCHMARK.json. Make the two sets on
one box with their runs interleaved (base, change, change, base, ...):
on a shared box the machine's speed drifts over minutes, and a block
of base runs followed by a block of change runs can read ``better`` for
identical code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common

#: Share of paired runs the change must win to be called better.
WIN_SHARE = 0.9


def load(path) -> list[dict]:
    """Untraced run records from a results file or a directory of them."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    records.append(record)
    return records


def verdict(base: list[float], change: list[float], bound: float, better: str,
            pairs: list[tuple[float, float]] | None = None) -> str:
    """One metric's verdict; ``pairs`` are (base, change) runs on one seed."""
    sign = 1.0 if better == "lower" else -1.0

    def improves(new: float, old: float) -> bool:
        return sign * (old - new) > 0

    b1, bmed, b3 = common.quartiles(base)
    c1, cmed, c3 = common.quartiles(change)
    gap = abs(cmed - bmed)
    if gap > b3 - b1:
        if all(improves(c, b) for c in change for b in base):
            return "better"
        if all(improves(b, c) for c in change for b in base):
            return "worse"
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    worsening = sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    if worsening > bound + spread:
        return "worse"
    if spread > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if pairs:
        wins = sum(1 for b, c in pairs if improves(c, b))
        if wins >= WIN_SHARE * len(pairs) and improves(cmed, bmed) and gap > b3 - b1:
            return "better"
    return "within"


def compare(base: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric)."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        b_runs = [r for r in base if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not b_runs or not c_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not b_vals or not c_vals:
                continue
            by_seed = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
            pairs = [
                (by_seed[r["seed"]], r["metrics"][name]["value"])
                for r in c_runs if r["seed"] in by_seed
            ]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "bound": m.get("bound"),
                "base": common.quartiles(b_vals),
                "change": common.quartiles(c_vals),
                "runs": (len(b_vals), len(c_vals)),
                "verdict": verdict(
                    b_vals, c_vals, m.get("bound", 0.0), m["better"], pairs
                ),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    """One table per metric, one row per workload."""

    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    header = ("workload", "base median [q1, q3]", "change median [q1, q3]",
              "change", "runs", "verdict")
    blocks = []
    for metric in dict.fromkeys(row["metric"] for row in rows):
        table = [header]
        for row in (r for r in rows if r["metric"] == metric):
            base_med, change_med = row["base"][1], row["change"][1]
            delta = (change_med - base_med) / abs(base_med) if base_med else 0.0
            table.append((
                row["workload"], cell(row["base"]), cell(row["change"]),
                f"{delta:+.1%}", f"{row['runs'][0]}/{row['runs'][1]}", row["verdict"],
            ))
        widths = [max(len(str(line[i])) for line in table) for i in range(len(header))]
        first = rows[[r["metric"] for r in rows].index(metric)]
        lines = [f"{metric} ({first['unit']}), bound {first['bound']:.0%}"]
        lines += [
            "  " + "  ".join(str(v).ljust(w) for v, w in zip(line, widths)).rstrip()
            for line in table
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    rows = compare(load(args.base), load(args.change), common.load_benchmark_spec())
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
