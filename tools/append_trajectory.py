#!/usr/bin/env python3
"""Append before/after benchmark rows to the perf trajectory.

    python3 tools/append_trajectory.py --pr N \
        --parent P1/report.json [P2/report.json ...] \
        --change C1/report.json [C2/report.json ...] \
        [--out bench/trajectory.jsonl]

Each report is the report.json that perfbench/run.py leaves under
.bench_out/<workload>-seed<S>-trace0/ (copy it aside after each run).
Reports are grouped by (workload, seed); every group needs at least one
parent and one change report, all untraced. One JSON line per group is
appended to the trajectory file:

    {"pr": N, "workload": W, "seed": S,
     "parent": {"git_sha": ..., "src_sha256": ..., "runs": k,
                "failed_frac": f,
                "metrics": {"wall_s": {"value": median, "q1": ...,
                                       "q3": ..., "unit": "s"}, ...}},
     "change": {...}}

`value` is the median over a side's runs and q1/q3 its quartiles, as
statistics.quantiles(n=4) gives them (all three equal for one run). A
side whose runs come from different sources (git sha or src hash) is
rejected, so one row never mixes builds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "bench" / \
    "trajectory.jsonl"


class TrajectoryError(Exception):
    pass


def quartiles(values):
    """(q1, median, q3); a single value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_report(path):
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise TrajectoryError(f"{path}: {e}")
    for key in ("workload", "seed", "trace", "provenance", "metrics",
                "failed_frac"):
        if key not in report:
            raise TrajectoryError(f"{path}: not a perfbench report "
                                  f"(no '{key}')")
    if report["trace"] != 0:
        raise TrajectoryError(f"{path}: traced run; the trajectory holds "
                              "the untraced end-to-end metrics")
    return report


def summarize(reports, where):
    """One side of a row: shared provenance, run count and per-metric
    median and quartiles."""
    shas = {(r["provenance"]["git_sha"], r["provenance"]["src_sha256"])
            for r in reports}
    if len(shas) != 1:
        raise TrajectoryError(f"{where}: runs come from {len(shas)} "
                              "different sources")
    (git_sha, src_sha), = shas
    names = list(reports[0]["metrics"])
    metrics = {}
    for name in names:
        if any(name not in r["metrics"] for r in reports):
            raise TrajectoryError(f"{where}: metric {name} missing from "
                                  "some runs")
        units = {r["metrics"][name]["unit"] for r in reports}
        if len(units) != 1:
            raise TrajectoryError(f"{where}: metric {name} has units "
                                  f"{sorted(units)}")
        q1, med, q3 = quartiles(r["metrics"][name]["value"]
                                for r in reports)
        metrics[name] = {"value": med, "q1": q1, "q3": q3,
                         "unit": units.pop()}
    return {"git_sha": git_sha, "src_sha256": src_sha, "runs": len(reports),
            "failed_frac": max(r["failed_frac"] for r in reports),
            "metrics": metrics}


def build_rows(pr, parent_paths, change_paths):
    groups = {}
    for side, paths in (("parent", parent_paths), ("change", change_paths)):
        for path in paths:
            report = load_report(path)
            key = (report["workload"], report["seed"])
            groups.setdefault(key, {"parent": [], "change": []})[side] \
                .append(report)
    rows = []
    for (workload, seed), sides in sorted(groups.items()):
        where = f"{workload} seed {seed}"
        for side in ("parent", "change"):
            if not sides[side]:
                raise TrajectoryError(f"{where}: no {side} report")
        parent = summarize(sides["parent"], f"{where} parent")
        change = summarize(sides["change"], f"{where} change")
        if set(parent["metrics"]) != set(change["metrics"]):
            raise TrajectoryError(f"{where}: parent and change report "
                                  "different metrics")
        rows.append({"pr": pr, "workload": workload, "seed": seed,
                     "parent": parent, "change": change})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number of the change the rows measure")
    ap.add_argument("--parent", nargs="+", required=True,
                    help="report.json files of the parent's runs")
    ap.add_argument("--change", nargs="+", required=True,
                    help="report.json files of the change's runs")
    ap.add_argument("--out", default=str(DEFAULT_OUT),
                    help="trajectory file to append to")
    args = ap.parse_args(argv)
    if args.pr < 1:
        print("append_trajectory: --pr must be a positive number",
              file=sys.stderr)
        return 1
    try:
        rows = build_rows(args.pr, args.parent, args.change)
    except TrajectoryError as e:
        print(f"append_trajectory: {e}", file=sys.stderr)
        return 1
    with open(args.out, "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    for row in rows:
        p = row["parent"]["metrics"]
        c = row["change"]["metrics"]
        print(f"{row['workload']} seed {row['seed']}: " + ", ".join(
            f"{n} {p[n]['value']:.4g} -> {c[n]['value']:.4g} {p[n]['unit']}"
            for n in p))
    return 0


if __name__ == "__main__":
    sys.exit(main())
