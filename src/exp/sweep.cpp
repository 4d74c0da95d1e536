#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "chip/churn.h"
#include "chip/os.h"
#include "common/assert.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "core/maxmin.h"
#include "exp/cell_cache.h"
#include "exp/json_writer.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/shard_plan.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

/// splitmix64-strength hash combine for per-cell seed derivation: the
/// seed depends only on the spec and the cell coordinates, never on
/// execution order — the root of the parallel == serial guarantee.
std::uint64_t
mixSeed(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
rateBits(double rate)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof rate);
    std::memcpy(&bits, &rate, sizeof bits);
    return bits;
}

std::uint64_t
cellSeed(const SweepSpec &spec, const CellSpec &cell)
{
    if (!spec.mixSeeds)
        return spec.baseSeed;
    std::uint64_t h = spec.baseSeed;
    h = mixSeed(h, static_cast<std::uint64_t>(cell.scenario));
    h = mixSeed(h, static_cast<std::uint64_t>(cell.topology));
    h = mixSeed(h, static_cast<std::uint64_t>(cell.pattern));
    h = mixSeed(h, static_cast<std::uint64_t>(cell.mode));
    h = mixSeed(h, rateBits(cell.rate));
    h = mixSeed(h, static_cast<std::uint64_t>(cell.workload));
    h = mixSeed(h, static_cast<std::uint64_t>(cell.placement));
    // A non-steady workload spec changes the cell's dynamics, so its
    // canonical words join the mix; steady cells skip it entirely and
    // keep the seeds every pre-existing sweep derived.
    if (!cell.workloadSpec.isSteady()) {
        std::vector<std::uint64_t> words;
        cell.workloadSpec.appendKeyWords(words);
        for (std::uint64_t w : words)
            h = mixSeed(h, w);
    }
    h = mixSeed(h, static_cast<std::uint64_t>(cell.replicate));
    return h;
}

ColumnConfig
cellColumn(const CellSpec &cell)
{
    return paperColumn(cell.topology, cell.mode);
}

void
putCommonColumnMetrics(CellResult &res, const ColumnSim &sim)
{
    const SimMetrics &m = sim.metrics();
    res.put("avg_latency", m.latency.mean());
    res.put("p95_latency", m.latencyHist.percentile(0.95));
    res.put("preemption_packet_rate", m.preemptionPacketRate());
    res.put("preemption_hop_rate", m.preemptionHopRate());
    res.put("window_flits", static_cast<double>(m.windowFlits()));
    res.put("offered_packets", static_cast<double>(m.measuredGenerated));
    res.put("delivered_packets", static_cast<double>(m.latency.count()));
}

/// The two plain-column scenarios are split into build / collect so a
/// replicate group sharing its traffic seed can warm one sim, snapshot
/// it, and fork the remaining replicates from the checkpoint — the
/// continuation is bit-identical to each replicate's own cold run.
std::unique_ptr<ColumnSim>
buildColumnCellSim(const CellSpec &cell)
{
    const ColumnConfig col = cellColumn(cell);
    TrafficConfig traffic;
    if (cell.scenario == Scenario::Hotspot) {
        traffic = makeHotspotAll(col, cell.rate);
    } else {
        traffic.pattern = cell.pattern;
        traffic.injectionRate = cell.rate;
    }
    traffic.seed = cell.seed;
    auto sim =
        std::make_unique<ColumnSim>(col, traffic, cell.workloadSpec);
    sim->configure({.shards = cell.shards});
    sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return sim;
}

CellResult
collectColumnCellMetrics(const CellSpec &cell, const ColumnSim &sim)
{
    const SimMetrics &m = sim.metrics();
    CellResult res;
    res.spec = cell;
    putCommonColumnMetrics(res, sim);
    if (cell.scenario == Scenario::Hotspot) {
        RunningStat rs;
        for (auto flits : m.flowFlits)
            rs.push(static_cast<double>(flits));
        res.put("mean_flits", rs.mean());
        res.put("min_flits", rs.min());
        res.put("max_flits", rs.max());
        res.put("stddev_flits", rs.stddev());
        res.put("preemptions", static_cast<double>(m.preemptionEvents));
    } else {
        res.put("throughput", m.throughputFlitsPerCycle(cell.phases.measure) /
                                  sim.cfg().numFlows());
        const double delivered = static_cast<double>(m.latency.count());
        const double offered = static_cast<double>(m.measuredGenerated);
        res.put("saturated",
                offered > 0.0 && delivered < 0.95 * offered ? 1.0 : 0.0);
    }
    return res;
}

CellResult
runColumnCell(const CellSpec &cell)
{
    auto sim = buildColumnCellSim(cell);
    sim->run(cell.phases.total());
    return collectColumnCellMetrics(cell, *sim);
}

/// Can cells of this shape share a warm checkpoint across replicates?
/// Only the plain fixed-horizon column scenarios qualify (the
/// adversarial and chip scenarios run to drain from cycle zero).
bool
warmShareable(const CellSpec &cell)
{
    return (cell.scenario == Scenario::LatencyLoad ||
            cell.scenario == Scenario::Hotspot) &&
           cell.phases.warmup > 0;
}

/// Dynamics key ignoring the replicate index: cells agreeing on it run
/// the same simulation through the warmup. With mixed seeds each
/// replicate's seed differs, so groups collapse to singletons and the
/// cold path runs as before.
std::uint64_t
warmGroupKey(const CellSpec &cell)
{
    CellSpec k = cell;
    k.replicate = 0;
    return CellCache::cellKey(k);
}

/// Run one shared-warmup group: the first replicate's sim carries the
/// warmup and is snapshotted at the warmup boundary; every later
/// replicate restores the snapshot and runs only measure + drain.
void
runColumnGroup(const std::vector<CellSpec> &cells,
               const std::vector<std::size_t> &unit,
               std::vector<CellResult> &out)
{
    const CellSpec &first = cells[unit[0]];
    auto warm = buildColumnCellSim(first);
    warm->run(first.phases.warmup);
    std::string snapshot;
    {
        std::ostringstream os;
        warm->saveCheckpoint(os);
        snapshot = os.str();
    }
    warm->run(first.phases.total() - first.phases.warmup);
    out[unit[0]] = collectColumnCellMetrics(first, *warm);

    for (std::size_t j = 1; j < unit.size(); ++j) {
        const CellSpec &cell = cells[unit[j]];
        auto sim = buildColumnCellSim(cell);
        std::istringstream is(snapshot);
        std::string err;
        const bool ok = sim->restoreCheckpoint(is, &err);
        TAQOS_ASSERT(ok, "warm-group restore failed: %s", err.c_str());
        sim->run(cell.phases.total() - cell.phases.warmup);
        out[unit[j]] = collectColumnCellMetrics(cell, *sim);
    }
}

CellResult
runAdversarialCell(const CellSpec &cell)
{
    TAQOS_ASSERT(cell.workload == 1 || cell.workload == 2,
                 "adversarial workload must be 1 or 2");
    TAQOS_ASSERT(cell.workloadSpec.isSteady() ||
                     cell.workloadSpec.modulated(),
                 "adversarial cells take steady/bursty/ramp workloads, "
                 "got %s",
                 workloadKindName(cell.workloadSpec.kind));
    const Cycle gen = cell.genCycles;
    const Cycle budget = gen * 10;

    const ColumnConfig col = cellColumn(cell);
    const TrafficConfig traffic =
        cell.workload == 1 ? makeWorkload1(col) : makeWorkload2(col);
    TrafficConfig finite = traffic;
    finite.genUntil = gen;
    finite.seed = cell.seed;

    ColumnSim sim(col, finite, cell.workloadSpec);
    sim.configure({.shards = cell.shards});
    sim.setMeasureWindow(0, gen);
    const Cycle done = sim.runUntilDrained(budget, gen);
    TAQOS_ASSERT(done != kNoCycle, "%s: run did not drain",
                 topologyName(cell.topology));

    // Preemption-free reference: identical traffic (same seed), same
    // topology, per-flow queueing.
    ColumnConfig colRef = col;
    colRef.mode = QosMode::PerFlowQueue;
    ColumnSim ref(colRef, finite, cell.workloadSpec);
    ref.configure({.shards = cell.shards});
    ref.setMeasureWindow(0, gen);
    const Cycle doneRef = ref.runUntilDrained(budget, gen);
    TAQOS_ASSERT(doneRef != kNoCycle, "%s: reference run did not drain",
                 topologyName(cell.topology));

    const SimMetrics &m = sim.metrics();

    // Expected throughput under max-min fairness: demands are the
    // injection rates; the capacity being shared is what the network
    // actually delivered in the generation window.
    std::vector<double> demands(static_cast<std::size_t>(col.numFlows()),
                                0.0);
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        if (traffic.flowActive(f) && !traffic.activeFlows.empty())
            demands[static_cast<std::size_t>(f)] = traffic.rateOf(f);
    }
    const double capacity =
        std::min(1.0, static_cast<double>(m.windowFlits()) /
                          static_cast<double>(gen));
    const std::vector<double> alloc = maxMinAllocation(demands, capacity);

    RunningStat dev;
    for (FlowId f = 0; f < col.numFlows(); ++f) {
        const double expect = alloc[static_cast<std::size_t>(f)] *
                              static_cast<double>(gen);
        if (expect <= 0.0)
            continue;
        const double got =
            static_cast<double>(m.flowFlits[static_cast<std::size_t>(f)]);
        dev.push(100.0 * (got - expect) / expect);
    }

    CellResult res;
    res.spec = cell;
    res.put("preempted_packets_pct", 100.0 * m.preemptionPacketRate());
    res.put("replayed_hops_pct", 100.0 * m.preemptionHopRate());
    res.put("completion_cycle", static_cast<double>(done));
    res.put("ref_completion_cycle", static_cast<double>(doneRef));
    res.put("slowdown_pct", 100.0 * (static_cast<double>(done) /
                                         static_cast<double>(doneRef) -
                                     1.0));
    res.put("avg_deviation_pct", dev.mean());
    res.put("min_deviation_pct", dev.min());
    res.put("max_deviation_pct", dev.max());
    return res;
}

/// Tenant-churn consolidation cell: the placement preset seeds the
/// initial tenant mix, then a ChurnDriver arrives/departs one VM per
/// epoch (churnFrames QOS frames), reprogramming the live sim's flow
/// registers and compute-flow activity at each frame-aligned epoch
/// boundary. Under churnAttack the column's own terminal flows run the
/// fig. 5 adversarial rates throughout, so preemption is exercised
/// against a shifting tenant mix.
CellResult
runChipChurnCell(const CellSpec &cell)
{
    const auto &placements = vmPlacements();
    TAQOS_ASSERT(cell.placement >= 0 &&
                     static_cast<std::size_t>(cell.placement) <
                         placements.size(),
                 "placement index out of range");
    const VmPlacement &pl =
        placements[static_cast<std::size_t>(cell.placement)];

    ChipNetConfig cfg;
    cfg.column.topology = cell.topology;
    cfg.column.mode = cell.mode;
    cfg.column.numNodes = cfg.chip.nodesY();

    std::vector<ChurnTenant> initial;
    for (const auto &s : pl.servers)
        initial.push_back({s.id, s.threads, s.weight});
    ChurnDriver churn(cfg, initial, cell.workloadSpec, cell.seed);
    cfg.column.pvc = churn.flowRegisters();

    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cell.rate;
    traffic.genUntil = cell.phases.measureEnd();
    traffic.seed = cell.seed;
    const std::vector<bool> active = churn.activeComputeFlows();
    traffic.activeFlows.assign(active.begin(), active.end());
    if (cell.workloadSpec.churnAttack) {
        // The driver never touches terminal flows, so the attacker's
        // activity and rates survive every reprogramming epoch.
        const auto &rates = workload1Rates();
        traffic.flowRates.assign(
            static_cast<std::size_t>(cfg.column.numFlows()), -1.0);
        for (int row = 0; row < cfg.chip.nodesY(); ++row) {
            const FlowId f = cfg.column.flowOf(row, 0);
            traffic.activeFlows[static_cast<std::size_t>(f)] = true;
            traffic.flowRates[static_cast<std::size_t>(f)] =
                rates[static_cast<std::size_t>(row) % rates.size()];
        }
    }

    ChipSim sim(cfg, traffic);
    sim.configure({.shards = cell.shards});
    sim.setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());

    // Segment loop: run to each frame-aligned epoch boundary inside the
    // generation horizon, apply that epoch's tenant change, continue.
    const Cycle epochLen = churn.epochLen();
    const Cycle genEnd = traffic.genUntil;
    Cycle now = 0;
    for (int e = 1; static_cast<Cycle>(e) * epochLen < genEnd; ++e) {
        const Cycle boundary = static_cast<Cycle>(e) * epochLen;
        sim.run(boundary - now);
        now = boundary;
        churn.advanceTo(e);
        churn.applyTo(sim);
    }
    const Cycle budget = cell.phases.total() * 4;
    const Cycle drain = sim.runUntilDrained(
        budget > now ? budget - now : 0, genEnd);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    CellResult res;
    res.spec = cell;
    res.put("drain_cycle",
            drain == kNoCycle ? -1.0 : static_cast<double>(drain));
    res.put("delivered_packets", static_cast<double>(m.deliveredPackets));
    res.put("handoffs", static_cast<double>(sim.handoffs()));
    res.put("preemptions", static_cast<double>(m.preemptionEvents));
    res.put("avg_latency", m.latency.mean());
    res.put("churn_epochs", static_cast<double>(churn.currentEpoch()));
    res.put("churn_arrivals", static_cast<double>(churn.arrivals()));
    res.put("churn_departures", static_cast<double>(churn.departures()));
    res.put("churn_live_vms", static_cast<double>(churn.liveVms()));
    return res;
}

CellResult
runChipConsolidationCell(const CellSpec &cell)
{
    TAQOS_ASSERT(cell.workloadSpec.kind != WorkloadKind::Trace,
                 "trace replay is a column workload; the chip "
                 "consolidation scenario has no embedding for it");
    if (cell.workloadSpec.kind == WorkloadKind::Churn)
        return runChipChurnCell(cell);

    const auto &placements = vmPlacements();
    TAQOS_ASSERT(cell.placement >= 0 &&
                     static_cast<std::size_t>(cell.placement) <
                         placements.size(),
                 "placement index out of range");
    const VmPlacement &pl = placements[static_cast<std::size_t>(cell.placement)];

    ChipNetConfig cfg;
    cfg.column.topology = cell.topology;
    cfg.column.mode = cell.mode;
    cfg.column.numNodes = cfg.chip.nodesY();

    OsScheduler os(cfg.chip);
    for (const auto &s : pl.servers) {
        const auto vm = os.createVm(s.id, s.threads, s.weight);
        TAQOS_ASSERT(vm.has_value(), "VM %d admission failed", s.id);
    }
    TAQOS_ASSERT(os.coScheduleInvariant(), "co-scheduling violated");
    cfg.column.pvc = os.columnFlowRegisters(cfg.columnX(), cfg.column);

    // Every VM-owned compute node streams memory requests at the cell
    // rate to uniformly spread memory-controller rows; terminal flows
    // (the column's own resources) stay quiet.
    TrafficConfig traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cell.rate;
    traffic.genUntil = cell.phases.measureEnd();
    traffic.seed = cell.seed;
    traffic.activeFlows.assign(
        static_cast<std::size_t>(cfg.column.numFlows()), false);
    for (int row = 0; row < cfg.chip.nodesY(); ++row) {
        for (int k = 1; k < cfg.column.injectorsPerNode; ++k) {
            if (os.ownerOf(NodeCoord{cfg.computeXOf(k), row}) >= 0) {
                traffic.activeFlows[static_cast<std::size_t>(
                    cfg.column.flowOf(row, k))] = true;
            }
        }
    }

    ChipSim sim(cfg, traffic, cell.workloadSpec);
    sim.configure({.shards = cell.shards});
    sim.setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    const Cycle drain =
        sim.runUntilDrained(cell.phases.total() * 4, traffic.genUntil);
    sim.checkInvariants();

    const SimMetrics &m = sim.metrics();
    CellResult res;
    res.spec = cell;
    res.put("drain_cycle",
            drain == kNoCycle ? -1.0 : static_cast<double>(drain));
    res.put("delivered_packets", static_cast<double>(m.deliveredPackets));
    res.put("handoffs", static_cast<double>(sim.handoffs()));
    res.put("preemptions", static_cast<double>(m.preemptionEvents));
    res.put("avg_latency", m.latency.mean());

    for (const auto &s : pl.servers) {
        const VmInfo *vm = os.vm(s.id);
        std::uint64_t flits = 0;
        for (int row = 0; row < cfg.chip.nodesY(); ++row) {
            for (int k = 1; k < cfg.column.injectorsPerNode; ++k) {
                if (os.ownerOf(NodeCoord{cfg.computeXOf(k), row}) != s.id)
                    continue;
                flits += m.flowFlits[static_cast<std::size_t>(
                    cfg.column.flowOf(row, k))];
            }
        }
        const std::string p = strFormat("vm%d_", s.id);
        res.put(p + "weight", static_cast<double>(s.weight));
        res.put(p + "nodes", static_cast<double>(vm->domain.size()));
        res.put(p + "flits", static_cast<double>(flits));
        res.put(p + "flits_per_node",
                static_cast<double>(flits) /
                    static_cast<double>(vm->domain.size()));
    }
    return res;
}

void
emitCellKey(JsonWriter &w, const CellSpec &c)
{
    w.field("topology", topologyName(c.topology));
    w.field("pattern", patternName(c.pattern));
    w.field("mode", qosModeName(c.mode));
    w.field("rate", c.rate);
    w.field("workload", c.workload);
    w.field("placement", c.placement);
    w.field("workload_spec", c.workloadSpec.name());
}

} // namespace

const char *
scenarioName(Scenario s)
{
    switch (s) {
      case Scenario::LatencyLoad: return "latency_load";
      case Scenario::Hotspot: return "hotspot";
      case Scenario::Adversarial: return "adversarial";
      case Scenario::ChipConsolidation: return "chip_consolidation";
    }
    return "?";
}

std::optional<Scenario>
parseScenario(const std::string &name)
{
    const std::string n = strLower(strTrim(name));
    if (n == "latency_load" || n == "latency" || n == "load")
        return Scenario::LatencyLoad;
    if (n == "hotspot")
        return Scenario::Hotspot;
    if (n == "adversarial" || n == "preemption")
        return Scenario::Adversarial;
    if (n == "chip_consolidation" || n == "chip" || n == "consolidation")
        return Scenario::ChipConsolidation;
    return std::nullopt;
}

const std::vector<VmPlacement> &
vmPlacements()
{
    // Preset 0 must stay the paper's consolidated-server mix —
    // runChipConsolidation() and its tests are anchored to it.
    static const std::vector<VmPlacement> kPlacements = {
        {"paper_3vm", {{1, 64, 4}, {2, 48, 2}, {3, 32, 1}}},
        {"equal_3vm", {{1, 48, 1}, {2, 48, 1}, {3, 48, 1}}},
        {"skewed_2vm", {{1, 96, 3}, {2, 64, 1}}},
    };
    return kPlacements;
}

double
CellResult::get(const std::string &name) const
{
    for (const auto &[k, v] : metrics) {
        if (k == name)
            return v;
    }
    TAQOS_ASSERT(false, "cell has no metric '%s'", name.c_str());
    return 0.0;
}

bool
CellResult::has(const std::string &name) const
{
    for (const auto &[k, v] : metrics) {
        (void)v;
        if (k == name)
            return true;
    }
    return false;
}

std::string
SweepSpec::validate() const
{
    const auto bad = [](const std::string &why) {
        return "bad sweep: " + why;
    };
    if (replicates < 1)
        return bad(strFormat("reps=%d, want >= 1", replicates));
    if (std::string why = phases.validate(); !why.empty())
        return bad(why);
    if (std::string why = cycleCountProblem("gencycles", genCycles);
        !why.empty())
        return bad(why);
    return "";
}

SweepSpec
SweepSpec::canonical() const
{
    const std::string bad = validate();
    TAQOS_ASSERT(bad.empty(), "%s", bad.c_str());
    SweepSpec c = *this;
    if (c.topologies.empty())
        c.topologies.assign(std::begin(kAllTopologies),
                            std::end(kAllTopologies));
    if (c.modes.empty())
        c.modes = {QosMode::Pvc};
    if (c.rates.empty())
        c.rates = {0.05};
    if (c.shards < 1)
        c.shards = 1;

    // Axes a scenario does not consume are collapsed to a single
    // canonical value so they never multiply the grid.
    switch (c.scenario) {
      case Scenario::LatencyLoad:
        if (c.patterns.empty())
            c.patterns = {TrafficPattern::UniformRandom};
        c.workloads = {0};
        c.placements = {0};
        break;
      case Scenario::Hotspot:
        c.patterns = {TrafficPattern::Hotspot};
        c.workloads = {0};
        c.placements = {0};
        break;
      case Scenario::Adversarial:
        c.patterns = {TrafficPattern::Hotspot};
        c.rates = {0.0}; // rates come from the workload definition
        if (c.workloads.empty())
            c.workloads = {1, 2};
        c.placements = {0};
        break;
      case Scenario::ChipConsolidation:
        c.patterns = {TrafficPattern::UniformRandom};
        c.workloads = {0};
        if (c.placements.empty())
            c.placements = {0};
        break;
    }

    if (c.workloadSpecs.empty())
        c.workloadSpecs = {WorkloadSpec{}};
    for (const auto &w : c.workloadSpecs) {
        switch (c.scenario) {
          case Scenario::LatencyLoad:
            TAQOS_ASSERT(w.kind != WorkloadKind::Churn,
                         "tenant churn needs the chip_consolidation "
                         "scenario, not %s",
                         scenarioName(c.scenario));
            break;
          case Scenario::Hotspot:
          case Scenario::Adversarial:
            TAQOS_ASSERT(w.isSteady() || w.modulated(),
                         "%s cells take steady/bursty/ramp workloads, "
                         "got %s",
                         scenarioName(c.scenario),
                         workloadKindName(w.kind));
            break;
          case Scenario::ChipConsolidation:
            TAQOS_ASSERT(w.kind != WorkloadKind::Trace,
                         "trace replay is a column workload; the chip "
                         "consolidation scenario has no embedding for it");
            break;
        }
    }
    return c;
}

std::vector<CellSpec>
SweepSpec::expand() const
{
    const SweepSpec c = canonical();
    std::vector<CellSpec> cells;
    for (auto kind : c.topologies) {
        for (auto pattern : c.patterns) {
            for (auto mode : c.modes) {
                for (double rate : c.rates) {
                    for (int workload : c.workloads) {
                        for (int placement : c.placements) {
                            for (const auto &ws : c.workloadSpecs) {
                                for (int rep = 0; rep < c.replicates;
                                     ++rep) {
                                    CellSpec cell;
                                    cell.scenario = c.scenario;
                                    cell.topology = kind;
                                    cell.pattern = pattern;
                                    cell.mode = mode;
                                    cell.rate = rate;
                                    cell.workload = workload;
                                    cell.placement = placement;
                                    cell.workloadSpec = ws;
                                    cell.replicate = rep;
                                    cell.phases = c.phases;
                                    cell.genCycles = c.genCycles;
                                    cell.shards = c.shards;
                                    cell.seed = cellSeed(c, cell);
                                    cells.push_back(cell);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

const RunningStat &
AggregateCell::get(const std::string &name) const
{
    for (const auto &[k, v] : stats) {
        if (k == name)
            return v;
    }
    TAQOS_ASSERT(false, "aggregate has no metric '%s'", name.c_str());
    static const RunningStat kEmpty;
    return kEmpty;
}

std::vector<AggregateCell>
aggregateCells(const SweepSpec &spec, const std::vector<CellResult> &cells)
{
    const int reps = std::max(1, spec.replicates);
    TAQOS_ASSERT(cells.size() % static_cast<std::size_t>(reps) == 0,
                 "cell count %zu not a multiple of replicates %d",
                 cells.size(), reps);
    std::vector<AggregateCell> aggs;
    for (std::size_t base = 0; base < cells.size();
         base += static_cast<std::size_t>(reps)) {
        AggregateCell agg;
        agg.key = cells[base].spec;
        for (const auto &[name, v] : cells[base].metrics) {
            (void)v;
            RunningStat rs;
            for (int r = 0; r < reps; ++r)
                rs.push(cells[base + static_cast<std::size_t>(r)].get(name));
            agg.stats.emplace_back(name, rs);
        }
        aggs.push_back(std::move(agg));
    }
    return aggs;
}

std::string
SweepResult::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "taqos-sweep/v1");
    w.field("name", spec.name);
    w.field("scenario", scenarioName(spec.scenario));

    w.beginObject("spec");
    w.beginArray("topologies");
    for (auto k : spec.topologies)
        w.value(topologyName(k));
    w.endArray();
    w.beginArray("patterns");
    for (auto p : spec.patterns)
        w.value(patternName(p));
    w.endArray();
    w.beginArray("modes");
    for (auto m : spec.modes)
        w.value(qosModeName(m));
    w.endArray();
    w.beginArray("rates");
    for (double r : spec.rates)
        w.value(r);
    w.endArray();
    w.beginArray("workloads");
    for (int x : spec.workloads)
        w.value(x);
    w.endArray();
    w.beginArray("placements");
    for (int x : spec.placements)
        w.value(x);
    w.endArray();
    w.beginArray("workload_specs");
    for (const auto &ws : spec.workloadSpecs)
        w.value(ws.name());
    w.endArray();
    w.field("replicates", spec.replicates);
    w.field("baseSeed", spec.baseSeed);
    w.field("mixSeeds", spec.mixSeeds);
    w.beginObject("phases");
    w.field("warmup", spec.phases.warmup);
    w.field("measure", spec.phases.measure);
    w.field("drain", spec.phases.drain);
    w.endObject();
    w.field("genCycles", spec.genCycles);
    w.endObject();

    w.beginArray("cells");
    for (const auto &cell : cells) {
        w.beginObject();
        emitCellKey(w, cell.spec);
        w.field("replicate", cell.spec.replicate);
        w.field("seed", cell.spec.seed);
        w.beginObject("metrics");
        for (const auto &[name, v] : cell.metrics)
            w.field(name, v);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.beginArray("aggregates");
    for (const auto &agg : aggregates) {
        w.beginObject();
        emitCellKey(w, agg.key);
        w.field("replicates",
                agg.stats.empty()
                    ? 0
                    : static_cast<std::int64_t>(agg.stats[0].second.count()));
        w.beginObject("metrics");
        for (const auto &[name, rs] : agg.stats) {
            w.beginObject(name);
            w.field("mean", rs.mean());
            w.field("stddev", rs.stddev());
            w.field("min", rs.min());
            w.field("max", rs.max());
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.str() + "\n";
}

bool
SweepResult::writeJson(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

SweepRunner::SweepRunner(int numThreads)
{
    if (numThreads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        numThreads = hw > 0 ? static_cast<int>(hw) : 1;
    }
    threads_ = numThreads;
}

CellResult
SweepRunner::runCell(const CellSpec &cell)
{
    switch (cell.scenario) {
      case Scenario::LatencyLoad: return runColumnCell(cell);
      case Scenario::Hotspot: return runColumnCell(cell);
      case Scenario::Adversarial: return runAdversarialCell(cell);
      case Scenario::ChipConsolidation:
        return runChipConsolidationCell(cell);
    }
    TAQOS_ASSERT(false, "unknown scenario");
    return CellResult{};
}

namespace {

/// Sidecar magic for runCellCheckpointed (followed by the u64 cell key,
/// then the NetSim checkpoint stream).
constexpr char kSidecarMagic[8] = {'T', 'Q', 'S', 'W', 'C', 'K', 'P', 'T'};

} // namespace

CellResult
SweepRunner::runCellCheckpointed(const CellSpec &cell,
                                 const std::string &ckptFile, bool *restored)
{
    if (restored != nullptr)
        *restored = false;
    if (!warmShareable(cell))
        return runCell(cell);

    const std::uint64_t key = CellCache::cellKey(cell);

    // Warm path: a sidecar keyed to this very cell restores in place of
    // the warmup run.
    {
        std::ifstream is(ckptFile, std::ios::binary);
        char magic[8];
        std::uint64_t fileKey = 0;
        if (is.read(magic, sizeof(magic)) &&
            std::memcmp(magic, kSidecarMagic, sizeof(magic)) == 0 &&
            is.read(reinterpret_cast<char *>(&fileKey), sizeof(fileKey)) &&
            fileKey == key) {
            auto sim = buildColumnCellSim(cell);
            std::string err;
            if (sim->restoreCheckpoint(is, &err)) {
                sim->run(cell.phases.total() - cell.phases.warmup);
                if (restored != nullptr)
                    *restored = true;
                return collectColumnCellMetrics(cell, *sim);
            }
        }
    }

    // Cold path: run the warmup, drop the sidecar, finish the cell.
    auto sim = buildColumnCellSim(cell);
    sim->run(cell.phases.warmup);
    {
        std::ofstream os(ckptFile, std::ios::binary | std::ios::trunc);
        if (os) {
            os.write(kSidecarMagic, sizeof(kSidecarMagic));
            os.write(reinterpret_cast<const char *>(&key), sizeof(key));
            sim->saveCheckpoint(os);
        }
    }
    sim->run(cell.phases.total() - cell.phases.warmup);
    return collectColumnCellMetrics(cell, *sim);
}

SweepResult
SweepRunner::run(const SweepSpec &spec, CellCache *cache) const
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult result;
    result.spec = spec.canonical();
    const std::vector<CellSpec> cells = result.spec.expand();
    result.cells.resize(cells.size());

    // Cache probe: hits land directly in their expansion slot; only the
    // misses are executed (and stored back afterwards).
    std::vector<std::size_t> todo;
    todo.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cache != nullptr && cache->load(cells[i], result.cells[i]))
            ++result.cacheHits;
        else
            todo.push_back(i);
    }
    result.cacheMisses = todo.size();

    // Work units: replicate groups that share a warm checkpoint, every
    // other cell a singleton. Grouping is deterministic
    // (first-appearance order over the expansion order).
    std::vector<std::vector<std::size_t>> units;
    {
        std::unordered_map<std::uint64_t, std::size_t> groupOf;
        for (std::size_t i : todo) {
            if (!warmShareable(cells[i])) {
                units.push_back({i});
                continue;
            }
            const auto [it, fresh] =
                groupOf.try_emplace(warmGroupKey(cells[i]), units.size());
            if (fresh)
                units.push_back({i});
            else
                units[it->second].push_back(i);
        }
    }

    const auto runUnit = [&cells, &result](const std::vector<std::size_t> &u) {
        if (u.size() == 1)
            result.cells[u[0]] = runCell(cells[u[0]]);
        else
            runColumnGroup(cells, u, result.cells);
    };

    // Cell workers x intra-run shards must fit the machine (see the
    // class comment for the precedence rules).
    const int workers =
        sweepWorkerBudget(threads_, units.size(), result.spec.shards,
                          std::thread::hardware_concurrency());
    if (workers <= 1) {
        for (const auto &u : units)
            runUnit(u);
    } else {
        // Work-stealing by atomic index: units land in their expansion
        // slots regardless of which worker ran them, so the result is
        // independent of scheduling.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(workers));
        for (int t = 0; t < workers; ++t) {
            pool.emplace_back([&units, &next, &runUnit] {
                while (true) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= units.size())
                        return;
                    runUnit(units[i]);
                }
            });
        }
        for (auto &th : pool)
            th.join();
    }

    if (cache != nullptr) {
        for (std::size_t i : todo)
            cache->store(cells[i], result.cells[i]);
    }

    result.aggregates = aggregateCells(result.spec, result.cells);
    result.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return result;
}

} // namespace taqos
