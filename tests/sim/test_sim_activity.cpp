/// The activity-driven engine: bit-identity with the always-tick
/// reference across every QOS policy (toggle equivalence), on the
/// preemption-heavy adversarial workload, on the whole-chip simulator,
/// on bursty two-chip fabrics (whose handoff buffers and links ride the
/// ejection list), including a restore taken mid-transfer, and on a
/// 72-node DPS column whose routers have more than 64 outputs; the event
/// schedules' invariants at every cycle boundary; the GSF
/// frame-boundary/worklist interaction (a gated flow must be re-admitted
/// across quiet periods — the engine may never skip the gate's per-cycle
/// rollover, however idle the routers are); and the consistency of the
/// incrementally-maintained activity state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "core/experiments.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "traffic/workloads.h"

namespace taqos {
namespace {

/// Extended-form digest (noc/metrics.h): generation, injection, hop
/// accounting, deliveries, preemptions, latency and per-flow throughput.
std::uint64_t
runDigest(const NetSim &sim)
{
    return metricsDigest(sim.metrics());
}

/// Every router idle at drain implies an (eventually) empty worklist —
/// and the incremental counters must agree with a full rescan, which
/// checkInvariants asserts.
void
expectQuiescent(const NetSim &sim)
{
    sim.checkInvariants();
    const Network &net = sim.net();
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        EXPECT_FALSE(net.router(n)->hasWork()) << "router " << n;
    }
}

// ------------------------------------------------- toggle equivalence

struct ToggleCase {
    TopologyKind topology;
    QosMode mode;
};

class ToggleEquivalence : public ::testing::TestWithParam<ToggleCase> {};

TEST_P(ToggleEquivalence, EnginesAreBitIdenticalOnARandomWorkload)
{
    const ToggleCase &tc = GetParam();
    const RunPhases phases = testPhases();
    std::uint64_t digests[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        const ColumnConfig col = paperColumn(tc.topology, tc.mode);
        TrafficConfig traffic;
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = 0.08;
        ColumnSim sim(col, traffic);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(phases.warmup, phases.measureEnd());
        sim.run(phases.total());
        sim.checkInvariants();
        digests[activity] = runDigest(sim);
    }
    EXPECT_EQ(digests[0], digests[1])
        << topologyName(tc.topology) << "/" << qosModeName(tc.mode);
}

std::vector<ToggleCase>
toggleCases()
{
    std::vector<ToggleCase> cases;
    for (auto kind : {TopologyKind::MeshX1, TopologyKind::Mecs,
                      TopologyKind::Dps}) {
        for (QosMode mode : kAllQosModes)
            cases.push_back(ToggleCase{kind, mode});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ToggleEquivalence, ::testing::ValuesIn(toggleCases()),
    [](const ::testing::TestParamInfo<ToggleCase> &info) {
        std::string n = std::string(topologyName(info.param.topology)) +
                        "_" + qosModeName(info.param.mode);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(ToggleEquivalence, PreemptionHeavyWorkloadMatches)
{
    // Workload 1 to completion: thousands of preemptions exercise the
    // kill/NACK/replay path, whose teardown dirties VCs and tables on
    // several routers at once.
    std::uint64_t digests[2] = {0, 0};
    Cycle done[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        TrafficConfig t = makeWorkload1(col);
        t.genUntil = 20000;
        ColumnSim sim(col, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 20000);
        done[activity] = sim.runUntilDrained(200000, 20000);
        ASSERT_NE(done[activity], kNoCycle);
        EXPECT_GT(sim.metrics().preemptionEvents, 1000u);
        digests[activity] = runDigest(sim);
        expectQuiescent(sim);
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

TEST(ToggleEquivalence, WholeChipSimulationMatches)
{
    std::uint64_t digests[2] = {0, 0};
    std::uint64_t handoffs[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ChipNetConfig cc;
        cc.column = paperColumn(TopologyKind::Dps, QosMode::Pvc);
        cc.column.pvc.frameLen = 2000;
        TrafficConfig t;
        t.pattern = TrafficPattern::UniformRandom;
        t.injectionRate = 0.05;
        t.genUntil = 5000;
        ChipSim sim(cc, t);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 5000);
        const Cycle done = sim.runUntilDrained(120000, 5000);
        ASSERT_NE(done, kNoCycle);
        digests[activity] = runDigest(sim);
        handoffs[activity] = sim.handoffs();
        expectQuiescent(sim);
    }
    EXPECT_GT(handoffs[1], 0u);
    EXPECT_EQ(handoffs[0], handoffs[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

// ---------------------------------------------- fabric toggle oracle

struct FabricToggleCase {
    LinkTopology links;
    QosMode mode;
};

class ToggleEquivalenceFabric
    : public ::testing::TestWithParam<FabricToggleCase> {};

/// Run outcome the fabric oracle compares across engines.
struct FabricRun {
    std::uint64_t digest = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t linkHops = 0;
    Cycle done = kNoCycle;
};

constexpr Cycle kFabricGenUntil = 5000;

std::unique_ptr<FabricSim>
makeBurstyFabric(const FabricToggleCase &fc, bool activity)
{
    FabricSpec spec;
    spec.chips = 2;
    spec.links = fc.links;
    spec.column = paperColumn(TopologyKind::Dps, fc.mode);
    spec.column.pvc.frameLen = 2000;
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.06;
    t.genUntil = kFabricGenUntil;
    WorkloadSpec bursty;
    bursty.kind = WorkloadKind::Bursty;
    auto sim = std::make_unique<FabricSim>(spec, t, bursty);
    sim->configure({.activityDriven = activity});
    sim->setMeasureWindow(1000, kFabricGenUntil);
    return sim;
}

FabricRun
finishFabric(FabricSim &sim)
{
    FabricRun run;
    run.done = sim.runUntilDrained(200000, kFabricGenUntil);
    run.digest = runDigest(sim);
    run.handoffs = sim.handoffs();
    run.linkHops = sim.linkHops();
    return run;
}

void
expectSameRun(const FabricRun &a, const FabricRun &b, const char *what)
{
    EXPECT_EQ(a.digest, b.digest) << what;
    EXPECT_EQ(a.handoffs, b.handoffs) << what;
    EXPECT_EQ(a.linkHops, b.linkHops) << what;
    EXPECT_EQ(a.done, b.done) << what;
}

/// Some transfer is streaming and some handoff buffer holds a packet.
bool
midTransferWithHandoffs(const FabricSim &sim)
{
    bool streaming = false;
    for (NodeId n = 0; n < sim.net().numNodes() && !streaming; ++n) {
        for (const auto &out : sim.net().router(n)->outputs())
            streaming = streaming || out->transfer().active;
    }
    bool handoffs = false;
    for (const InputPort *port : sim.net().auxPorts())
        handoffs = handoffs || port->occupied() > 0;
    return streaming && handoffs;
}

TEST_P(ToggleEquivalenceFabric, BurstyTwoChipEnginesAndRestoreMatch)
{
    const FabricToggleCase &fc = GetParam();
    FabricRun runs[2];
    for (int activity = 0; activity < 2; ++activity) {
        auto sim = makeBurstyFabric(fc, activity == 1);
        runs[activity] = finishFabric(*sim);
        ASSERT_NE(runs[activity].done, kNoCycle);
        expectQuiescent(*sim);
    }
    EXPECT_GT(runs[0].handoffs, 0u);
    EXPECT_GT(runs[0].linkHops, 0u);
    expectSameRun(runs[0], runs[1], "activity vs always-tick");

    // Checkpoint the activity-driven run mid-transfer, with packets
    // sitting in handoff buffers: the restored run rebuilds the
    // completion calendar and the ejection list from the snapshot and
    // must finish exactly like the oracle.
    auto ref = makeBurstyFabric(fc, true);
    ref->run(2500);
    while (!midTransferWithHandoffs(*ref) && ref->now() < kFabricGenUntil)
        ref->step();
    ASSERT_TRUE(midTransferWithHandoffs(*ref));
    std::ostringstream os;
    ref->saveCheckpoint(os);

    auto restored = makeBurstyFabric(fc, true);
    std::istringstream is(os.str());
    std::string err;
    ASSERT_TRUE(restored->restoreCheckpoint(is, &err)) << err;
    restored->checkInvariants();
    const FabricRun resumed = finishFabric(*restored);
    expectQuiescent(*restored);
    expectSameRun(runs[0], resumed, "restored vs always-tick");
}

TEST(ActivitySchedules, HoldAtEveryCycleBoundary)
{
    // The event schedules' invariants (checkInvariants): every in-flight
    // transfer is on the completion calendar at its tail departure,
    // every buffer holding a packet is on the ejection list, and every
    // output's wake covers its not-yet-eligible slots. Checked at every
    // cycle boundary of a bursty fabric run and a preemption-heavy
    // column run, so a missed filing, arm or wake fails on the cycle it
    // happens rather than as a later digest drift.
    auto fabric = makeBurstyFabric(
        FabricToggleCase{LinkTopology::Ring, QosMode::Pvc}, true);
    ColumnConfig col = paperColumn(TopologyKind::Dps, QosMode::Pvc);
    ColumnSim column(col, makeWorkload1(col));
    for (Cycle c = 0; c < 3000; ++c) {
        fabric->step();
        fabric->checkInvariants();
    }
    EXPECT_GT(fabric->handoffs(), 0u);
    for (Cycle c = 0; c < 20000; ++c) {
        column.step();
        column.checkInvariants();
    }
    EXPECT_GT(column.metrics().preemptionEvents, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    LinksAndPolicies, ToggleEquivalenceFabric,
    ::testing::Values(FabricToggleCase{LinkTopology::PointToPoint,
                                       QosMode::Pvc},
                      FabricToggleCase{LinkTopology::PointToPoint,
                                       QosMode::Gsf},
                      FabricToggleCase{LinkTopology::PointToPoint,
                                       QosMode::Wrr},
                      FabricToggleCase{LinkTopology::Ring, QosMode::Pvc},
                      FabricToggleCase{LinkTopology::Ring, QosMode::Gsf},
                      FabricToggleCase{LinkTopology::Ring, QosMode::Wrr}),
    [](const ::testing::TestParamInfo<FabricToggleCase> &info) {
        std::string n = std::string(linkTopologyName(info.param.links)) +
                        "_" + qosModeName(info.param.mode);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------------ routers wider than 64 outputs

/// A 72-node DPS column gives every router one crossbar output per
/// destination subnet, so its per-output dirty and winner sets span two
/// 64-bit words. The always-tick engine, the activity-driven one, four
/// shards and a restore from a mid-run checkpoint must all agree.
class WideDpsColumn : public ::testing::TestWithParam<QosMode> {};

constexpr int kWideNodes = 72;
constexpr Cycle kWideGenUntil = 2000;

std::unique_ptr<ColumnSim>
makeWideColumn(QosMode mode, const EngineConfig &engine)
{
    ColumnConfig col = paperColumn(TopologyKind::Dps, mode);
    col.numNodes = kWideNodes;
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.02;
    t.genUntil = kWideGenUntil;
    auto sim = std::make_unique<ColumnSim>(col, t);
    sim->configure(engine);
    sim->setMeasureWindow(500, kWideGenUntil);
    return sim;
}

/// Drain `sim` and return its digest (0 if it never drains).
std::uint64_t
drainWide(ColumnSim &sim)
{
    const Cycle done = sim.runUntilDrained(100000, kWideGenUntil);
    EXPECT_NE(done, kNoCycle);
    expectQuiescent(sim);
    return done == kNoCycle ? 0 : runDigest(sim);
}

TEST_P(WideDpsColumn, EnginesShardsAndRestoreMatch)
{
    const QosMode mode = GetParam();
    auto oracle = makeWideColumn(mode, {.activityDriven = false});
    std::size_t widest = 0;
    for (NodeId n = 0; n < oracle->net().numNodes(); ++n)
        widest = std::max(widest, oracle->net().router(n)->outputs().size());
    EXPECT_GT(widest, 64u);
    const std::uint64_t want = drainWide(*oracle);
    EXPECT_GT(oracle->metrics().deliveredPackets, 1000u);

    // Activity-driven, with the wake and winner-bit invariants checked
    // at every cycle boundary while traffic is being generated.
    auto activity = makeWideColumn(mode, {});
    for (Cycle c = 0; c < kWideGenUntil; ++c) {
        activity->step();
        activity->checkInvariants();
    }
    EXPECT_EQ(drainWide(*activity), want) << "activity-driven";

    auto sharded =
        makeWideColumn(mode, {.shards = 4, .shardMinActive = 0});
    EXPECT_EQ(drainWide(*sharded), want) << "shards=4";

    auto ref = makeWideColumn(mode, {});
    ref->run(kWideGenUntil / 2);
    std::ostringstream os;
    ref->saveCheckpoint(os);
    auto restored = makeWideColumn(mode, {});
    std::istringstream is(os.str());
    std::string err;
    ASSERT_TRUE(restored->restoreCheckpoint(is, &err)) << err;
    restored->checkInvariants();
    EXPECT_EQ(drainWide(*restored), want) << "restored mid-run";
}

INSTANTIATE_TEST_SUITE_P(
    PvcGsfNoQos, WideDpsColumn,
    ::testing::Values(QosMode::Pvc, QosMode::Gsf, QosMode::NoQos),
    [](const ::testing::TestParamInfo<QosMode> &info) {
        std::string n = qosModeName(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------- GSF gate vs the idle-engine worklist

NetPacket *
enqueuePacket(ColumnSim &sim, FlowId flow, NodeId dst, int size)
{
    NetPacket *pkt = sim.pool().alloc();
    pkt->flow = flow;
    pkt->src = sim.cfg().nodeOfFlow(flow);
    pkt->dst = dst;
    pkt->sizeFlits = size;
    pkt->genCycle = sim.now();
    pkt->queuedCycle = sim.now();
    sim.metrics().generatedPackets++;
    sim.metrics().generatedFlits += static_cast<std::uint64_t>(size);
    sim.network().injector(flow).enqueue(pkt);
    return pkt;
}

TEST(GsfActivity, FrameRolloverReadmitsAGatedFlowAfterAQuietPeriod)
{
    // Six packets, each large enough to exhaust a whole per-frame budget,
    // are queued at once on one flow. Only `gsfFrames` of them can be
    // admitted up front; every later one sits gated at the source until
    // the gate's window advances — which happens inside the per-cycle
    // frame-boundary tick while the rest of the network is completely
    // idle. An engine that let the idle worklist skip that tick (or that
    // dropped a router whose only work is a gated source packet) would
    // stall here forever, on both sides of the toggle.
    Cycle done[2] = {0, 0};
    std::uint64_t digests[2] = {0, 0};
    for (int activity = 0; activity < 2; ++activity) {
        ColumnConfig col = paperColumn(TopologyKind::MeshX1, QosMode::Gsf);
        col.pvc.gsfFrameLen = 200;
        col.pvc.gsfFrames = 2;
        TrafficConfig quiet;
        quiet.injectionRate = 0.0; // no generated traffic at all
        ColumnSim sim(col, quiet);
        sim.configure({.activityDriven = activity == 1});
        sim.setMeasureWindow(0, 100000);

        // Budget per flow per frame: max(1, 200/64) = 3 flits, so each
        // 4-flit packet fills one frame window on its own.
        for (int i = 0; i < 6; ++i)
            enqueuePacket(sim, /*flow=*/0, /*dst=*/6, /*size=*/4);

        done[activity] = sim.runUntilDrained(100000, 1);
        ASSERT_NE(done[activity], kNoCycle) << "gated flow never re-admitted";
        EXPECT_EQ(sim.metrics().deliveredPackets, 6u);
        // The admissions really were serialized by the gate: six
        // one-per-frame packets admitted window-by-window (each waiting
        // for a predecessor's drain-driven reclamation) take several
        // traversal times, where an ungated burst would pipeline.
        EXPECT_GT(done[activity], static_cast<Cycle>(60));
        digests[activity] = runDigest(sim);
        expectQuiescent(sim);

        // Long fully-idle stretch (every router asleep), then one more
        // packet: the gate must have kept rolling its (now idle) frames
        // forward on the timer, so the new packet is admitted promptly.
        sim.run(10 * 200);
        NetPacket *late = enqueuePacket(sim, /*flow=*/1, /*dst=*/5,
                                        /*size=*/4);
        const Cycle t0 = sim.now();
        const Cycle doneLate = sim.runUntilDrained(5000, t0 + 1);
        ASSERT_NE(doneLate, kNoCycle);
        EXPECT_EQ(late->state, PacketState::Delivered);
        // Prompt: one network traversal, no extra frame-length stalls.
        EXPECT_LT(doneLate - t0, static_cast<Cycle>(200));
    }
    EXPECT_EQ(done[0], done[1]);
    EXPECT_EQ(digests[0], digests[1]);
}

} // namespace
} // namespace taqos
