/// The paper's whole chip as a one-chip, one-column fabric: the
/// column-equivalence anchor (driven by its terminal flows only, which
/// enter the column directly, the chip is metric-identical to ColumnSim
/// on the same seed), full-chip delivery guarantees, the row segment's
/// latency, the weighted share of the consolidated server, and
/// structural invariants after every scenario.
#include <gtest/gtest.h>

#include <string>

#include "chip/os.h"
#include "core/experiments.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

void
expectMetricsIdentical(const SimMetrics &a, const SimMetrics &b)
{
    EXPECT_EQ(a.generatedPackets, b.generatedPackets);
    EXPECT_EQ(a.generatedFlits, b.generatedFlits);
    EXPECT_EQ(a.measuredGenerated, b.measuredGenerated);
    EXPECT_EQ(a.injectedAttempts, b.injectedAttempts);
    EXPECT_EQ(a.deliveredPackets, b.deliveredPackets);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.preemptionEvents, b.preemptionEvents);
    EXPECT_DOUBLE_EQ(a.usefulHops, b.usefulHops);
    EXPECT_DOUBLE_EQ(a.wastedHops, b.wastedHops);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
    ASSERT_EQ(a.flowFlits.size(), b.flowFlits.size());
    for (std::size_t f = 0; f < a.flowFlits.size(); ++f)
        EXPECT_EQ(a.flowFlits[f], b.flowFlits[f]) << "flow " << f;
}

/// Restrict `t` to the column's terminal flows (injector 0 of every
/// node): those enter the column at its entrance queues in ColumnSim
/// and in the one-chip fabric alike, so the two runs see the same
/// packets at the same cycles.
void
terminalFlowsOnly(const ColumnConfig &col, TrafficConfig &t)
{
    t.activeFlows.assign(static_cast<std::size_t>(col.numFlows()), false);
    for (int node = 0; node < col.numNodes; ++node)
        t.activeFlows[static_cast<std::size_t>(col.flowOf(node, 0))] = true;
}

FabricSpec
oneChip(const ColumnConfig &col)
{
    FabricSpec spec;
    spec.column = col;
    return spec;
}

class ChipEquivalence : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ChipEquivalence, SingleColumnMatchesColumnSimExactly)
{
    ColumnConfig col;
    col.topology = GetParam();
    col.mode = QosMode::Pvc;
    col.pvc.frameLen = 2000; // cross several frame boundaries

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.3;
    t.genUntil = 6000;
    terminalFlowsOnly(col, t);

    ColumnSim ref(col, t);
    ref.setMeasureWindow(1000, 5000);

    FabricSim chip(oneChip(col), t);
    chip.setMeasureWindow(1000, 5000);

    for (int i = 0; i < 9000; ++i) {
        ref.step();
        chip.step();
    }
    expectMetricsIdentical(ref.metrics(), chip.metrics());
    EXPECT_GT(chip.metrics().deliveredPackets, 0u);
    EXPECT_EQ(chip.handoffs(), 0u); // the rows really were idle
    EXPECT_EQ(ref.drained(), chip.drained());
    ref.checkInvariants();
    chip.checkInvariants();
}

TEST_P(ChipEquivalence, HotspotPreemptionsMatchExactly)
{
    // Saturating hotspot: exercises PVC preemption, NACK replay and the
    // reserved quota — the hardest state to keep cycle-identical.
    ColumnConfig col;
    col.topology = GetParam();
    col.mode = QosMode::Pvc;
    col.pvc.frameLen = 3000;
    TrafficConfig t = makeHotspotAll(col, 0.05);
    t.genUntil = 5000;
    terminalFlowsOnly(col, t);

    ColumnSim ref(col, t);
    FabricSim chip(oneChip(col), t);

    for (int i = 0; i < 8000; ++i) {
        ref.step();
        chip.step();
    }
    expectMetricsIdentical(ref.metrics(), chip.metrics());
    EXPECT_GT(chip.metrics().preemptionEvents, 0u);
    EXPECT_EQ(chip.handoffs(), 0u);
    ref.checkInvariants();
    chip.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ChipEquivalence,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

class ChipSimTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(ChipSimTest, FullChipLowLoadDeliversEverything)
{
    FabricSpec cc;
    cc.column.topology = GetParam();
    cc.column.mode = QosMode::Pvc;

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 5000;

    FabricSim sim(cc, t);
    const Cycle done = sim.runUntilDrained(60000, 5000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_EQ(sim.metrics().deliveredFlits, sim.metrics().generatedFlits);
    // Row-injector traffic really crossed the row meshes.
    EXPECT_GT(sim.handoffs(), 0u);
    sim.checkInvariants();
}

TEST_P(ChipSimTest, FullChipHotspotKeepsInvariantsUnderPressure)
{
    FabricSpec cc;
    cc.column.topology = GetParam();
    cc.column.mode = QosMode::Pvc;
    cc.column.pvc.frameLen = 2500;

    TrafficConfig t = makeHotspotAll(cc.column, 0.05);
    t.genUntil = 6000;

    FabricSim sim(cc, t);
    for (int chunk = 0; chunk < 8; ++chunk) {
        sim.run(1000);
        sim.checkInvariants();
    }
    EXPECT_GT(sim.metrics().deliveredPackets, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ChipSimTest,
                         ::testing::ValuesIn(kAllTopologies),
                         [](const auto &info) {
                             return std::string(topologyName(info.param));
                         });

TEST(ChipSimLatency, RowSegmentAddsEndToEndLatency)
{
    // The same traffic measured end to end from the compute nodes must be
    // slower than when injected at the column boundary: the row segment
    // is real simulated work, not an accounting fiction. ColumnSim
    // generates the identical packet stream straight into the column.
    ColumnConfig col;
    col.topology = TopologyKind::Dps;
    TrafficConfig t;
    t.injectionRate = 0.04;
    t.genUntil = 6000;

    ColumnSim fast(col, t);
    fast.setMeasureWindow(1000, 6000);
    fast.runUntilDrained(40000, 6000);

    FabricSim slow(oneChip(col), t);
    slow.setMeasureWindow(1000, 6000);
    const Cycle done = slow.runUntilDrained(60000, 6000);
    ASSERT_NE(done, kNoCycle);

    EXPECT_EQ(slow.metrics().generatedPackets,
              fast.metrics().generatedPackets);
    EXPECT_GT(slow.metrics().latency.mean(),
              fast.metrics().latency.mean() + 1.0);
    fast.checkInvariants();
    slow.checkInvariants();
}

TEST(ChipConsolidation, ConsolidatedServerRunsToDrainWithQosColumn)
{
    const ChipConsolidationResult res =
        runChipConsolidation(TopologyKind::Dps, 0.05, testPhases());
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_GT(res.deliveredPackets, 0u);
    EXPECT_GT(res.handoffs, 0u);
    ASSERT_EQ(res.vms.size(), 3u);
    for (const auto &vm : res.vms) {
        EXPECT_GT(vm.flits, 0u) << "VM " << vm.vmId;
        EXPECT_GT(vm.domainNodes, 0u) << "VM " << vm.vmId;
    }
    // Weights are 4:2:1 — under uncongested uniform load every VM gets
    // its demand, so per-node service is within the same ballpark; the
    // weighted share binds under contention (next test).
}

TEST(ChipConsolidation, PerNodeServiceFollowsTheWeightsUnderHotspotLoad)
{
    // examples/consolidated_server's run: the paper's three VMs with SLA
    // weights 4 : 2 : 1, every injector streaming to one hotspot at 0.05
    // flits/cycle, measured over two PVC frames. The shared column is
    // the bottleneck, so PVC must split it by weight: each VM's share of
    // the per-node service is within 10% of its weight share.
    const ChipConfig chip;
    OsScheduler os(chip);
    const std::uint32_t weights[] = {4, 2, 1};
    const int threads[] = {64, 48, 32};
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(os.createVm(i + 1, threads[i], weights[i]).has_value());

    FabricSpec cfg;
    cfg.column.topology = TopologyKind::Dps;
    cfg.column.numNodes = chip.nodesY();
    cfg.column.pvc =
        os.columnFlowRegisters(chip.sharedColumns.front(), cfg.column);
    TrafficConfig traffic = makeHotspotAll(cfg.column, 0.05);
    traffic.genUntil = 110000;
    FabricSim sim(cfg, traffic);
    sim.setMeasureWindow(10000, 110000);
    ASSERT_NE(sim.runUntilDrained(400000, traffic.genUntil), kNoCycle);
    sim.checkInvariants();
    EXPECT_GT(sim.metrics().preemptionEvents, 0u);

    double perNode[3] = {};
    const std::vector<int> &computeXs = sim.network().catchment(0);
    for (int row = 0; row < chip.nodesY(); ++row) {
        for (int k = 1; k < cfg.column.injectorsPerNode; ++k) {
            const int x = computeXs[static_cast<std::size_t>(k - 1)];
            const int owner = os.ownerOf(NodeCoord{x, row});
            if (owner < 1)
                continue;
            perNode[owner - 1] += static_cast<double>(
                sim.metrics().flowFlits[static_cast<std::size_t>(
                    cfg.column.flowOf(row, k))]);
        }
    }
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
        perNode[i] /= static_cast<double>(os.vm(i + 1)->domain.size());
        total += perNode[i];
    }
    for (int i = 0; i < 3; ++i) {
        const double want = weights[i] / 7.0;
        EXPECT_NEAR(perNode[i] / total, want, 0.1 * want)
            << "VM " << i + 1 << " (weight " << weights[i] << ") got "
            << perNode[i] << " flits per node";
    }
}

} // namespace
} // namespace taqos
