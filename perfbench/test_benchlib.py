#!/usr/bin/env python3
"""Self-tests of the benchmark's reduction helpers (perfbench/benchlib.py).

    python3 perfbench/test_benchlib.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def span(start, end, parent=-1, name="x"):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "cell": -1, "attrs": {}}


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertEqual(med, 4.0)
        self.assertEqual((q1, q3), (2.0, 7.0))

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([3.5]), (3.5, 3.5, 3.5))

    def test_even_count_interpolates(self):
        self.assertEqual(benchlib.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]),
                         (1.5, 3.0, 4.5))

    def test_percentile_interpolates(self):
        xs = list(range(1, 101))
        self.assertEqual(benchlib.percentile(xs, 50), 50.5)
        self.assertEqual(benchlib.percentile(xs, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 90), 7.0)


class GaugeScaled(unittest.TestCase):
    def test_scales_each_timing_by_its_own_sample(self):
        self.assertEqual(benchlib.gauge_scaled([2.0, 3.0], [4.0, 1.0], 2.0),
                         [1.0, 6.0])

    def test_a_host_twice_as_slow_reads_the_same(self):
        quiet = benchlib.gauge_scaled([5.0], [0.004], 0.004)
        loaded = benchlib.gauge_scaled([10.0], [0.008], 0.004)
        self.assertEqual(quiet, loaded)

    def test_rejects_missing_or_bad_samples(self):
        with self.assertRaises(ValueError):
            benchlib.gauge_scaled([1.0, 2.0], [1.0], 1.0)
        with self.assertRaises(ValueError):
            benchlib.gauge_scaled([], [], 1.0)
        with self.assertRaises(ValueError):
            benchlib.gauge_scaled([1.0], [0.0], 1.0)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(19))
        self.assertEqual(benchlib.tail_percentile(20), 50)
        self.assertEqual(benchlib.tail_percentile(75), 75)
        self.assertEqual(benchlib.tail_percentile(100), 90)
        self.assertEqual(benchlib.tail_percentile(199), 90)
        self.assertEqual(benchlib.tail_percentile(200), 95)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertEqual(benchlib.tail_percentile(10000), 99.9)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(0, 100),            # root
            span(10, 40, parent=0),  # child
            span(15, 25, parent=1),  # grandchild: only its parent pays
            span(60, 90, parent=0),  # child
        ]
        self.assertEqual(benchlib.self_times(spans), [40, 20, 10, 30])

    def test_overlapping_children_count_their_union(self):
        spans = [span(0, 100), span(10, 50, parent=0),
                 span(30, 70, parent=0), span(80, 90, parent=0)]
        self.assertEqual(benchlib.self_times(spans)[0], 100 - 60 - 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(10, 20), span(0, 15, parent=0)]
        self.assertEqual(benchlib.self_times(spans)[0], 5)


class ReferenceSubset(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.diff_sweep = benchlib.load_diff_sweep(HERE.parent)

    def tearDown(self):
        self.tmp.cleanup()

    def point(self, rate, latency, stats=False):
        metric = {"mean": latency, "stddev": 0} if stats else latency
        return {"topology": "dps", "pattern": "uniform", "mode": "pvc",
                "rate": rate, "workload": 0, "placement": 0,
                "metrics": {"avg_latency": metric}}

    def write(self, name, points):
        path = self.dir / name
        path.write_text(json.dumps({"aggregates": points}))
        return path

    def test_points_run_match_a_larger_reference(self):
        ref = self.write("ref.json", [self.point(0.01, 10.0),
                                      self.point(0.02, 11.0),
                                      self.point(0.03, 12.0)])
        cur = self.write("cur.json", [self.point(0.02, 11.1, stats=True)])
        self.assertEqual(benchlib.reference_failures(cur, ref,
                                                     self.diff_sweep), {})

    def test_perturbed_value_fails(self):
        ref = self.write("ref.json", [self.point(0.01, 10.0),
                                      self.point(0.02, 11.0)])
        cur = self.write("cur.json", [self.point(0.01, 10.0, stats=True),
                                      self.point(0.02, 11.0 * 1.03,
                                                 stats=True)])
        failures = benchlib.reference_failures(cur, ref, self.diff_sweep)
        self.assertEqual(list(failures), [1])
        self.assertIn("avg_latency", failures[1][0])

    def test_point_missing_from_reference_fails(self):
        ref = self.write("ref.json", [self.point(0.01, 10.0)])
        cur = self.write("cur.json", [self.point(0.05, 10.0, stats=True)])
        self.assertEqual(list(benchlib.reference_failures(
            cur, ref, self.diff_sweep)), [0])


if __name__ == "__main__":
    unittest.main()
