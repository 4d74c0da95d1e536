#!/usr/bin/env python3
"""Unit tests for tools/append_trajectory.py: grouping by workload and
seed, medians and quartiles per side, and the rejections (traced runs,
mixed sources, a side without runs, mismatched metrics). Run directly
(python3 tools/test_append_trajectory.py) or via ctest
(append_trajectory_py)."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import append_trajectory  # noqa: E402


def report(workload="fabric_bursty", seed=0, wall=3.0, trace=0,
           sha="a" * 40, src="b" * 64, failed_frac=0.0):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "provenance": {"git_sha": sha, "src_sha256": src},
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": 42.0, "unit": "MB"}},
        "failed_frac": failed_frac,
    }


class Reports:
    """Write report dicts to temp files; returns their paths."""

    def __init__(self):
        self.dir = tempfile.TemporaryDirectory()
        self.count = 0

    def write(self, rep):
        self.count += 1
        path = os.path.join(self.dir.name, f"report{self.count}.json")
        with open(path, "w") as f:
            json.dump(rep, f)
        return path

    def out(self):
        return os.path.join(self.dir.name, "trajectory.jsonl")


def run(argv):
    """main() with its stdout/stderr captured: (rc, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = append_trajectory.main(argv)
    return rc, err.getvalue()


class AppendTest(unittest.TestCase):
    def setUp(self):
        self.reps = Reports()

    def lines(self):
        with open(self.reps.out()) as f:
            return [json.loads(line) for line in f]

    def test_one_pair_appends_one_row(self):
        p = self.reps.write(report(wall=4.0, src="p" * 64))
        c = self.reps.write(report(wall=3.0, src="c" * 64))
        rc, _ = run(["--pr", "14", "--parent", p, "--change", c,
                     "--out", self.reps.out()])
        self.assertEqual(rc, 0)
        rows = self.lines()
        self.assertEqual(len(rows), 1)
        row = rows[0]
        self.assertEqual((row["pr"], row["workload"], row["seed"]),
                         (14, "fabric_bursty", 0))
        self.assertEqual(row["parent"]["src_sha256"], "p" * 64)
        self.assertEqual(row["change"]["src_sha256"], "c" * 64)
        self.assertEqual(row["parent"]["git_sha"], "a" * 40)
        wall = row["change"]["metrics"]["wall_s"]
        self.assertEqual((wall["value"], wall["q1"], wall["q3"],
                          wall["unit"]), (3.0, 3.0, 3.0, "s"))
        self.assertEqual(row["parent"]["metrics"]["wall_s"]["value"], 4.0)
        self.assertEqual(row["parent"]["metrics"]["peak_rss_mb"]["unit"],
                         "MB")
        self.assertEqual(row["change"]["runs"], 1)

    def test_appends_rather_than_overwrites(self):
        p = self.reps.write(report())
        c = self.reps.write(report(src="c" * 64))
        args = ["--pr", "14", "--parent", p, "--change", c,
                "--out", self.reps.out()]
        self.assertEqual(run(args)[0], 0)
        self.assertEqual(run(args)[0], 0)
        self.assertEqual(len(self.lines()), 2)

    def test_median_and_quartiles_over_runs(self):
        parents = [self.reps.write(report(wall=w))
                   for w in (5.0, 1.0, 3.0, 2.0, 4.0)]
        changes = [self.reps.write(report(wall=w, src="c" * 64))
                   for w in (2.0, 1.0)]
        rc, _ = run(["--pr", "14", "--parent", *parents, "--change",
                     *changes, "--out", self.reps.out()])
        self.assertEqual(rc, 0)
        row, = self.lines()
        wall = row["parent"]["metrics"]["wall_s"]
        self.assertEqual(row["parent"]["runs"], 5)
        self.assertEqual(wall["value"], 3.0)
        # statistics.quantiles(n=4) on 1..5 (exclusive method).
        self.assertEqual((wall["q1"], wall["q3"]), (1.5, 4.5))
        self.assertEqual(row["change"]["metrics"]["wall_s"]["value"], 1.5)

    def test_one_row_per_workload_and_seed(self):
        paths = {}
        for side, src in (("parent", "p"), ("change", "c")):
            paths[side] = [
                self.reps.write(report(workload=w, seed=s, src=src * 64))
                for w, s in (("qos_adversarial", 0), ("fabric_bursty", 7),
                             ("fabric_bursty", 0))]
        rc, _ = run(["--pr", "14", "--parent", *paths["parent"],
                     "--change", *paths["change"], "--out",
                     self.reps.out()])
        self.assertEqual(rc, 0)
        self.assertEqual([(r["workload"], r["seed"]) for r in self.lines()],
                         [("fabric_bursty", 0), ("fabric_bursty", 7),
                          ("qos_adversarial", 0)])

    def test_failed_frac_is_the_worst_run(self):
        p = self.reps.write(report())
        c1 = self.reps.write(report(src="c" * 64))
        c2 = self.reps.write(report(src="c" * 64, failed_frac=0.5))
        self.assertEqual(run(["--pr", "14", "--parent", p, "--change", c1,
                              c2, "--out", self.reps.out()])[0], 0)
        row, = self.lines()
        self.assertEqual(row["parent"]["failed_frac"], 0.0)
        self.assertEqual(row["change"]["failed_frac"], 0.5)

    def assertRejected(self, argv, message):
        rc, err = run(argv + ["--out", self.reps.out()])
        self.assertEqual(rc, 1)
        self.assertIn(message, err)
        self.assertEqual(err.count("\n"), 1)
        self.assertFalse(os.path.exists(self.reps.out()))

    def test_rejects_traced_report(self):
        p = self.reps.write(report())
        c = self.reps.write(report(trace=1))
        self.assertRejected(["--pr", "14", "--parent", p, "--change", c],
                            "traced run")

    def test_rejects_side_mixing_sources(self):
        p = self.reps.write(report())
        c1 = self.reps.write(report(src="c" * 64))
        c2 = self.reps.write(report(src="d" * 64))
        self.assertRejected(["--pr", "14", "--parent", p, "--change", c1,
                             c2], "2 different sources")

    def test_rejects_workload_without_a_parent(self):
        p = self.reps.write(report())
        c1 = self.reps.write(report(src="c" * 64))
        c2 = self.reps.write(report(workload="qos_adversarial",
                                    src="c" * 64))
        self.assertRejected(["--pr", "14", "--parent", p, "--change", c1,
                             c2], "qos_adversarial seed 0: no parent")

    def test_rejects_mismatched_metrics(self):
        p = self.reps.write(report())
        rep = report(src="c" * 64)
        del rep["metrics"]["peak_rss_mb"]
        c = self.reps.write(rep)
        self.assertRejected(["--pr", "14", "--parent", p, "--change", c],
                            "different metrics")

    def test_rejects_non_report(self):
        p = self.reps.write({"correct": True})
        c = self.reps.write(report())
        self.assertRejected(["--pr", "14", "--parent", p, "--change", c],
                            "not a perfbench report")

    def test_rejects_bad_pr(self):
        p = self.reps.write(report())
        c = self.reps.write(report(src="c" * 64))
        self.assertRejected(["--pr", "0", "--parent", p, "--change", c],
                            "--pr must be a positive number")


if __name__ == "__main__":
    unittest.main()
