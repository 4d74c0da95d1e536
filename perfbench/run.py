#!/usr/bin/env python3
"""taqos benchmark: build the driver from the checkout's sources, run one
workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload fig4_grid|fabric_bursty|qos_adversarial
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. --trace 0 prints the end-to-end metrics
of BENCHMARK.json, --trace 1 the per-layer ones. Every metric is printed
as "name value unit", then the last line is one JSON object with the keys
correct, attempted, failed and metrics. The full report (metrics, checks,
provenance) and the driver's raw record and spans go to
.bench_out/<workload>-seed<N>-trace<T>/. See perfbench/RATIONALE.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
DRIVER_TIMEOUT_S = 170
LAYERS = ("exp", "topo", "sim", "traffic", "chip")
# The driver's gauge loop (see Gauge in driver.cpp) took this long, median
# over a ten-minute sample, on the shared 4-vCPU Intel Xeon host (GCC 12.2,
# Release) the benchmark was developed on. End-to-end timings are scaled to
# it, so they read as seconds on that host at its median speed.
GAUGE_REF_S = 3.6e-3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "perfbench_driver"


def provenance(record):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    # A checkout without git history still identifies its sources.
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            tree.update(str(path.relative_to(ROOT)).encode())
            tree.update(path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha or None,  # the checkout may have no git history
        "src_sha256": tree.hexdigest(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "nproc": os.cpu_count(),
        "workers": record["workers"],
        "cpu_model": cpu,
    }


def end_to_end(record):
    """Metrics of BENCHMARK.json, with every timing scaled by the gauge,
    and the unscaled timings and gauge samples as notes."""
    reps = benchlib.gauge_scaled(record["rep_wall_s"], record["rep_gauge_s"],
                                 GAUGE_REF_S)
    setups = benchlib.gauge_scaled(record["setup_s"],
                                   record["setup_gauge_s"], GAUGE_REF_S)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(reps),
        "sim_cycles_per_s": statistics.median(
            record["sim_cycles"] / w for w in reps),
        "flits_per_s": statistics.median(record["flits"] / w for w in reps),
        "peak_rss_mb": (record["peak_rss_kb"] - record["gauge_kb"]) / 1024.0,
    }
    notes = {
        "unscaled.setup_s": statistics.median(record["setup_s"]),
        "unscaled.wall_s": statistics.median(record["rep_wall_s"]),
        "gauge_ms.median": 1e3 * statistics.median(
            record["rep_gauge_s"] + record["setup_gauge_s"]),
        "repetitions": len(reps),
    }
    return metrics, notes


def per_layer(record, spans):
    selfs = benchlib.self_times(spans)
    dur = benchlib.duration

    def named(name):
        return [(s, selfs[i]) for i, s in enumerate(spans)
                if s["name"] == name]

    def ms(ns):
        return ns * 1e-6

    def ratio(num, den):
        return num / den if den else 0.0

    cells = named("exp.cell")
    cell_ms = [ms(dur(s)) for s, _ in cells]
    sweeps = named("exp.sweep")
    busy = sum(dur(s) for s, _ in cells)
    capacity = sum(s["attrs"]["workers"] * dur(s) for s, _ in sweeps)

    phases = [x for n in ("sim.warmup", "sim.measure", "sim.drain")
              for x in named(n)]
    phase_ns = sum(t for _, t in phases)
    router_cycles = sum(s["attrs"]["cycles"] * s["attrs"]["routers"]
                        for s, _ in phases)
    phase_flits = sum(s["attrs"]["flits"] for s, _ in phases)

    def ns_per_cycle(pred):
        picked = [s for s, _ in cells if "rate" in s["attrs"]
                  and pred(s["attrs"])]
        return ratio(sum(dur(s) for s in picked),
                     sum(s["attrs"]["cycles"] for s in picked))

    ticks = named("traffic.tick")
    chip_cells = [ms(dur(s)) for s, _ in cells if s["attrs"].get("chip")]
    c = record["counts"]
    m = {
        "exp.cell_ms.p50": statistics.median(cell_ms),
        "exp.cell_ms.max": max(cell_ms),
        "exp.parallel_efficiency": ratio(busy, capacity),
        "topo.build_ms": statistics.median(
            ms(dur(s)) for s, _ in named("topo.build")),
        "sim.build_ms": statistics.median(
            ms(dur(s)) for s, _ in named("sim.build")),
        "sim.warmup_ms": ms(sum(t for _, t in named("sim.warmup"))),
        "sim.measure_ms": ms(sum(t for _, t in named("sim.measure"))),
        "sim.drain_ms": ms(sum(t for _, t in named("sim.drain"))),
        "sim.ns_per_router_cycle": ratio(phase_ns, router_cycles),
        "sim.ns_per_cycle.low_load": ns_per_cycle(
            lambda a: a["rate"] <= 0.05),
        "sim.ns_per_cycle.saturated": ns_per_cycle(
            lambda a: a["saturated"] == 1),
        "sim.ns_per_flit": ratio(phase_ns, phase_flits),
        "traffic.ns_per_packet": ratio(
            sum(dur(s) for s, _ in ticks),
            sum(s["attrs"]["packets"] for s, _ in ticks)),
        "qos.preemptions": c["qos.preemptions"],
        "qos.replayed_hop_frac": ratio(
            c["qos.wasted_hops"], c["qos.wasted_hops"] + c["qos.useful_hops"]),
        "qos.injection_yield": ratio(c["qos.delivered_packets"],
                                     c["qos.injection_attempts"]),
        "chip.cell_ms": statistics.median(chip_cells) if chip_cells else 0.0,
        "chip.churn_epochs": c["chip.churn_epochs"],
        "fabric.handoffs": c["fabric.handoffs"],
        "fabric.link_hops": c["fabric.link_hops"],
        "bench.trace_overhead_frac": ratio(record["traced_wall_s"],
                                           record["untraced_wall_s"]) - 1.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms(sum(
            t for i, t in enumerate(selfs)
            if spans[i]["name"].split(".")[0] == layer))
    tail = benchlib.tail_percentile(len(cell_ms))
    notes = {"exp.cell_ms.samples": len(cell_ms)}
    if tail is not None:
        notes[f"exp.cell_ms.p{tail:g}"] = benchlib.percentile(cell_ms, tail)
    return m, notes


def check_references(args, record):
    """Cell failures from the nightly references (default seed only)."""
    if args.seed != 0:
        return {}
    diff_sweep = benchlib.load_diff_sweep(ROOT)
    failed = {}
    for part in record["parts"]:
        if not part["ref"]:
            continue
        ref = ROOT / "bench" / "nightly_ref" / f"{part['ref']}.json"
        for i, msgs in benchlib.reference_failures(
                part["file"], ref, diff_sweep).items():
            failed[(part["name"], i)] = msgs
    if args.workload == "fabric_bursty":
        pinned = json.loads((ROOT / "perfbench" / "reference.json")
                            .read_text())["fabric_bursty_digest"]
        if record["digest"] != pinned:
            failed[("fabric", 0)] = [f"digest {record['digest']} vs "
                                     f"reference {pinned}"]
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fig4_grid", "fabric_bursty", "qos_adversarial"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # driver before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = build()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out)]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr,
                            timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if rc:
        fail(f"driver exited with {rc}")
    record = json.loads((out / "record.json").read_text())

    if args.trace:
        spans = json.loads((out / "spans.json").read_text())
        values, notes = per_layer(record, spans)
        wanted = bench["per_layer"]
    else:
        values, notes = end_to_end(record)
        wanted = bench["end_to_end"]

    ref_failures = check_references(args, record)
    cells = []
    for cell in record["cells"]:
        msgs = cell["failures"] + ref_failures.get(
            (cell["part"], cell["index"]), [])
        cells.append({"label": cell["label"], "failures": msgs})
    failed = sum(1 for c in cells if c["failures"])
    attempted = len(cells)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(record), "metrics": metrics,
        "notes": notes, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [c for c in cells if c["failures"]],
        "reference_checked": args.seed == 0,
    }
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    prov = report["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={(prov['git_sha'] or 'none')[:12]} "
          f"src={prov['src_sha256'][:12]} "
          f"{prov['compiler']} {prov['build_type']} nproc={prov['nproc']} "
          f"workers={prov['workers']} cpu='{prov['cpu_model']}'")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, v in notes.items():
        print(f"{name} {v!r}")
    print(f"failed_frac {failed / attempted!r} frac "
          f"({failed} of {attempted} cells"
          f"{'' if args.seed == 0 else ', reference check skipped'})")
    for c in report["failures"][:10]:
        print(f"FAILED {c['label']}: {'; '.join(c['failures'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
