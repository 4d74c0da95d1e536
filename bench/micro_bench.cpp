/// Google-benchmark microbenchmarks: simulator cycle throughput per
/// topology (column and whole chip), router arbitration cost, RNG, and
/// max-min allocation — the performance envelope of the library itself.
///
/// Before the google-benchmark suite runs, a fixed-work timing pass
/// writes `BENCH_micro.json` (simulated cycles/second, wall time and
/// delivered flits/cycle per topology) so the perf trajectory of the
/// repo is recorded machine-readably on every run.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiments.h"
#include "core/maxmin.h"
#include "exp/json_writer.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "traffic/workloads.h"

using namespace taqos;

namespace {

void
BM_SimCycles(benchmark::State &state)
{
    const auto kind = static_cast<TopologyKind>(state.range(0));
    const ColumnConfig col = paperColumn(kind);
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.08;
    ColumnSim sim(col, traffic);
    sim.run(2000); // warm the pipes
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(topologyName(kind));
}

void
BM_SimHotspotCycles(benchmark::State &state)
{
    const auto kind = static_cast<TopologyKind>(state.range(0));
    const ColumnConfig col = paperColumn(kind);
    const TrafficConfig traffic = makeHotspotAll(col, 0.05);
    ColumnSim sim(col, traffic);
    sim.run(2000);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(topologyName(kind));
}

void
BM_ChipCycles(benchmark::State &state)
{
    const auto kind = static_cast<TopologyKind>(state.range(0));
    FabricSpec cfg; // the paper's chip: one chip, one shared column
    cfg.column = paperColumn(kind);
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = 0.04;
    FabricSim sim(cfg, traffic);
    sim.run(2000);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(topologyName(kind));
}

void
BM_Rng(benchmark::State &state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextU64());
}

void
BM_MaxMin(benchmark::State &state)
{
    std::vector<double> demands(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < demands.size(); ++i)
        demands[i] = 0.01 + 0.001 * static_cast<double>(i % 37);
    for (auto _ : state)
        benchmark::DoNotOptimize(maxMinAllocation(demands, 1.0));
}

void
BM_BuildColumn(benchmark::State &state)
{
    const auto kind = static_cast<TopologyKind>(state.range(0));
    for (auto _ : state) {
        ColumnConfig col = paperColumn(kind);
        benchmark::DoNotOptimize(ColumnNetwork::build(col));
    }
    state.SetLabel(topologyName(kind));
}

void
BM_BuildChip(benchmark::State &state)
{
    const auto kind = static_cast<TopologyKind>(state.range(0));
    for (auto _ : state) {
        FabricSpec cfg;
        cfg.column = paperColumn(kind);
        benchmark::DoNotOptimize(FabricNetwork::build(cfg));
    }
    state.SetLabel(topologyName(kind));
}

// ------------------------------------------------- BENCH_micro.json pass

struct MicroRow {
    std::string name;
    Cycle cycles = 0;
    double wallMs = 0.0;
    double simCyclesPerSec = 0.0;
    double deliveredFlitsPerCycle = 0.0;
};

template <typename Sim>
MicroRow
timeSim(const std::string &name, Sim &sim, Cycle cycles)
{
    sim.run(2000); // warm-up outside the timed window
    const auto flitsBefore = sim.metrics().deliveredFlits;
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(cycles);
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count();

    MicroRow row;
    row.name = name;
    row.cycles = cycles;
    row.wallMs = sec * 1e3;
    row.simCyclesPerSec = static_cast<double>(cycles) / sec;
    row.deliveredFlitsPerCycle =
        static_cast<double>(sim.metrics().deliveredFlits - flitsBefore) /
        static_cast<double>(cycles);
    return row;
}

void
writeMicroJson(const char *path)
{
    constexpr Cycle kCycles = 20000;
    std::vector<MicroRow> rows;
    for (auto kind : kAllTopologies) {
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(paperColumn(kind), traffic);
        rows.push_back(timeSim(std::string("column_") + topologyName(kind),
                               sim, kCycles));
    }
    {
        FabricSpec cfg;
        cfg.column = paperColumn(TopologyKind::Dps);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.04;
        FabricSim sim(cfg, traffic);
        rows.push_back(timeSim("chip_dps", sim, kCycles));
    }

    JsonWriter w;
    w.beginObject();
    w.field("benchmark", "micro");
    w.beginObject("unit");
    w.field("simCyclesPerSec", "Hz");
    w.field("wallMs", "ms");
    w.endObject();
    w.beginArray("results");
    for (const MicroRow &r : rows) {
        w.beginObject();
        w.field("name", r.name);
        w.field("simCycles", static_cast<std::uint64_t>(r.cycles));
        w.field("wallMs", r.wallMs);
        w.field("simCyclesPerSec", r.simCyclesPerSec);
        w.field("deliveredFlitsPerCycle", r.deliveredFlitsPerCycle);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (writeTextFile(path, w.str() + "\n"))
        std::printf("wrote %s (%zu entries)\n", path, rows.size());
}

} // namespace

BENCHMARK(BM_SimCycles)->DenseRange(0, 4);
BENCHMARK(BM_SimHotspotCycles)->DenseRange(0, 4);
BENCHMARK(BM_ChipCycles)->DenseRange(0, 4);
BENCHMARK(BM_Rng);
BENCHMARK(BM_MaxMin)->Arg(64)->Arg(1024);
BENCHMARK(BM_BuildColumn)->DenseRange(0, 4);
BENCHMARK(BM_BuildChip)->DenseRange(0, 4);

int
main(int argc, char **argv)
{
    writeMicroJson("BENCH_micro.json");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
