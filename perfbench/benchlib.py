"""Statistics, span and reference helpers that perfbench/run.py uses to
reduce a driver record to metrics. Unit-tested by test_benchlib.py."""

import importlib.util
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

# Candidate tail percentiles, highest last.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# diff_sweep.py's default rule for the nightly references.
REF_RTOL = 0.02
REF_ATOL = 1e-9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) >= 1000.0 - 1e-6:  # tolerate 99.9's rounding
            best = p
    return best


def percentile(values, p):
    """Linear-interpolated p-th percentile of values."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def gauge_scaled(values, gauges, ref):
    """Each timing times ref / the gauge sample taken with it: what it
    would read on a host where the gauge loop takes ref seconds."""
    values, gauges = list(values), list(gauges)
    if len(values) != len(gauges) or not values:
        raise ValueError(f"{len(values)} timings but {len(gauges)} gauge "
                         "samples")
    if min(gauges) <= 0.0:
        raise ValueError("gauge samples must be positive")
    return [v * ref / g for v, g in zip(values, gauges)]


def duration(span):
    return span["end_ns"] - span["start_ns"]


def self_times(spans):
    """Each span's duration minus the part of it that its child spans
    cover (children may overlap one another, e.g. parallel cells)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0.0
        cur = None
        for a, b in sorted((max(lo, spans[c]["start_ns"]),
                            min(hi, spans[c]["end_ns"]))
                           for c in children[i]):
            if b <= a:
                continue
            if cur is None or a > cur[1]:
                if cur is not None:
                    covered += cur[1] - cur[0]
                cur = [a, b]
            else:
                cur[1] = max(cur[1], b)
        if cur is not None:
            covered += cur[1] - cur[0]
        out.append(hi - lo - covered)
    return out


def load_diff_sweep(root):
    """tools/diff_sweep.py of the checkout, imported as a module."""
    path = Path(root) / "tools" / "diff_sweep.py"
    spec = importlib.util.spec_from_file_location("diff_sweep", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def reference_failures(sweep_path, ref_path, diff_sweep):
    """Compare the grid points a sweep record ran with a nightly reference
    by diff_sweep.py's rule. Returns {aggregate index: [messages]}; a
    point missing from the reference fails."""
    with open(sweep_path) as f:
        order = [diff_sweep.grid_key(a) for a in json.load(f)["aggregates"]]
    _, current = diff_sweep.load_aggregates(sweep_path)
    _, reference = diff_sweep.load_aggregates(ref_path)
    failures = {}
    for i, key in enumerate(order):
        msgs = []
        ref = reference.get(key)
        if ref is None:
            msgs.append("grid point missing from the reference")
        else:
            for name, ref_v in sorted(ref.items()):
                cur_v = current[key].get(name)
                if cur_v is None:
                    msgs.append(f"{name}: metric missing")
                elif abs(cur_v - ref_v) > REF_ATOL + REF_RTOL * abs(ref_v):
                    msgs.append(f"{name}: {cur_v:.6g} vs reference "
                                f"{ref_v:.6g} (rtol {REF_RTOL:g})")
        if msgs:
            failures[i] = msgs
    return failures
