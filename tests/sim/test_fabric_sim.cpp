/// Fabric simulation: the whole-chip anchor (a one-chip, one-column
/// fabric reproduces the metrics recorded from the dedicated whole-chip
/// engine it replaced), cross-chip delivery over both link topologies,
/// a kilo-node fabric draining with its invariants, and recorded fabric
/// traces passing the independent checker's audit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiments.h"
#include "sim/fabric_sim.h"
#include "sim/trace_record.h"
#include "verify/checker.h"

namespace taqos {
namespace {

FabricSpec
twoChipSpec()
{
    FabricSpec spec;
    spec.chips = 2;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;
    return spec;
}

TEST(FabricEquivalence, OneChipOneColumnMatchesChipSimExactly)
{
    // The whole-chip anchor: restricted to one chip with one shared
    // column, the fabric must reproduce, metric for metric, what the
    // dedicated whole-chip engine (retired in favour of this one)
    // recorded on the same seed — same generator stream, same origin
    // queues, same handoffs. flowFlits is pinned by an FNV-1a hash.
    FabricSpec spec;
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.column.pvc.frameLen = 2000;

    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.05;
    t.genUntil = 5000;

    FabricSim fab(spec, t);
    fab.setMeasureWindow(1000, 5000);
    for (int i = 0; i < 20000; ++i)
        fab.step();

    const SimMetrics &m = fab.metrics();
    EXPECT_EQ(m.generatedPackets, 6279u);
    EXPECT_EQ(m.generatedFlits, 15816u);
    EXPECT_EQ(m.measuredGenerated, 5055u);
    EXPECT_EQ(m.injectedAttempts, 11749u);
    EXPECT_EQ(m.deliveredPackets, 6279u);
    EXPECT_EQ(m.deliveredFlits, 15816u);
    EXPECT_EQ(m.preemptionEvents, 0u);
    EXPECT_DOUBLE_EQ(m.usefulHops, 37942.0);
    EXPECT_DOUBLE_EQ(m.wastedHops, 0.0);
    EXPECT_EQ(m.latency.count(), 5055u);
    EXPECT_DOUBLE_EQ(m.latency.mean(), 19.656181998021793);
    ASSERT_EQ(m.flowFlits.size(), 64u);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t v : m.flowFlits) {
        h ^= v;
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(h, 0x9129cb2ed29891fdull);
    EXPECT_EQ(fab.handoffs(), 5470u);
    EXPECT_EQ(fab.linkHops(), 0u);
    EXPECT_TRUE(fab.drained());
    fab.checkInvariants();
}

TEST(FabricSimTest, TwoChipsDeliverEverythingAcrossTheLinks)
{
    FabricSpec spec = twoChipSpec();
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 4000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(120000, 4000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_EQ(sim.metrics().deliveredFlits, sim.metrics().generatedFlits);
    EXPECT_GT(sim.handoffs(), 0u);
    EXPECT_GT(sim.linkHops(), 0u); // remote flows really crossed chips
    sim.checkInvariants();
}

TEST(FabricSimTest, RingTransitsForwardToTheRightChip)
{
    FabricSpec spec = twoChipSpec();
    spec.chips = 3;
    spec.links = LinkTopology::Ring;
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.015;
    t.genUntil = 3000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(150000, 3000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    EXPECT_GT(sim.linkHops(), 0u);
    sim.checkInvariants();
}

TEST(FabricSimTest, MixedBlockPoliciesRunToDrain)
{
    FabricSpec spec;
    spec.chip.tilesX = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    spec.columnModes = {QosMode::Pvc, QosMode::PerFlowQueue};
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = 3000;

    FabricSim sim(spec, t);
    const Cycle done = sim.runUntilDrained(120000, 3000);
    ASSERT_NE(done, kNoCycle);
    EXPECT_EQ(sim.metrics().deliveredPackets,
              sim.metrics().generatedPackets);
    sim.checkInvariants();
}

TEST(FabricScale, KiloNodeFabricDrainsWithInvariants)
{
    // The acceptance scale: 4 chips x 256 nodes = 1024 routers, every
    // shared column active, short phases to keep the suite fast.
    FabricSpec spec;
    spec.chips = 4;
    spec.chip.tilesX = 32;
    spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    spec.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.01;
    t.genUntil = 800;
    FabricSim sim(spec, t);
    ASSERT_GE(sim.net().numNodes(), 1024);
    sim.setMeasureWindow(0, 800);
    const Cycle done = sim.runUntilDrained(60000, 800);
    ASSERT_NE(done, kNoCycle);
    sim.checkInvariants();
}

TEST(FabricTrace, TwoChipTraceAuditsClean)
{
    FabricSpec spec = twoChipSpec();
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.05;
    t.genUntil = 4000;
    FabricSim sim(spec, t);
    sim.setMeasureWindow(0, 4000);
    TraceRecorder rec(describeFabric(sim.network()));
    rec.setMeasureWindow(0, 4000);
    sim.attachTraceSink(&rec);

    const Cycle done = sim.runUntilDrained(120000, 4000);
    ASSERT_NE(done, kNoCycle);
    rec.finish(sim.now(), sim.drained());

    const CheckReport report = verifyTrace(rec.trace());
    EXPECT_TRUE(report.ok()) << report.firstDiagnostic();
    EXPECT_GT(report.eventsChecked, 1000u);
}

TEST(FabricConsolidation, ExperimentDrainsAndServesEveryVm)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.ratePerNode = 0.03;
    cfg.phases = RunPhases{500, 2000, 1000};

    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    ASSERT_NE(res.drainCycle, kNoCycle);
    EXPECT_EQ(res.nodes, 2 * 64);
    EXPECT_GT(res.deliveredPackets, 0u);
    EXPECT_GT(res.handoffs, 0u);
    EXPECT_GT(res.linkHops, 0u);

    // Every admitted VM on every chip got service, and both chips carry
    // the same three-VM mix.
    ASSERT_EQ(res.vms.size(), 6u);
    for (const auto &vm : res.vms) {
        EXPECT_GT(vm.flits, 0u) << "chip " << vm.chip << " vm " << vm.vmId;
        EXPECT_GT(vm.domainNodes, 0u);
        EXPECT_GT(vm.flitsPerNode, 0.0);
    }
}

TEST(FabricConsolidation, SmallBurstyFabricDigestIsPinned)
{
    // Two 8x8-node chips under the default bursty workload: 128 routers,
    // blocks whose unusable slots and unowned compute nodes leave many
    // flows never live. The digest was recorded when generation and the
    // ON/OFF chains still stepped every flow each cycle, so it pins that
    // the live-flow-only hot path changes no output.
    FabricConsolidationConfig cfg;
    cfg.chips = 2;
    cfg.ratePerNode = 0.15;
    cfg.phases = RunPhases{1000, 4000, 2000};
    cfg.workload.kind = WorkloadKind::Bursty;

    const FabricConsolidationResult r = runFabricConsolidation(cfg);
    ASSERT_NE(r.drainCycle, kNoCycle);
    EXPECT_EQ(r.nodes, 2 * 64);
    EXPECT_GT(r.linkHops, 0u);
    EXPECT_EQ(r.digest, 0xbba477701d679354ull);
}

} // namespace
} // namespace taqos
