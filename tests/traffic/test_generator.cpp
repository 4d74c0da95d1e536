#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "noc/metrics.h"
#include "traffic/dynamic.h"
#include "traffic/generator.h"

namespace taqos {
namespace {

struct GenHarness {
    GenHarness(TrafficConfig t, int nodes = 8, int perNode = 8)
        : metrics(nodes * perNode)
    {
        col.numNodes = nodes;
        col.injectorsPerNode = perNode;
        col.canonicalize();
        injectors.resize(static_cast<std::size_t>(col.numFlows()));
        for (FlowId f = 0; f < col.numFlows(); ++f)
            injectors[static_cast<std::size_t>(f)].flow = f;
        gen = std::make_unique<TrafficGenerator>(col, t);
    }

    void run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c)
            gen->tick(c, pool, injectors, metrics);
    }

    ColumnConfig col;
    PacketPool pool;
    std::vector<InjectorQueue> injectors;
    SimMetrics metrics;
    std::unique_ptr<TrafficGenerator> gen;
};

TEST(Generator, RateAccuracy)
{
    TrafficConfig t;
    t.injectionRate = 0.10;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.run(50000);
    const double flitsPerCyclePerInj =
        static_cast<double>(h.metrics.generatedFlits) / 50000.0 / 64.0;
    EXPECT_NEAR(flitsPerCyclePerInj, 0.10, 0.01);
}

TEST(Generator, PacketSizeMix)
{
    TrafficConfig t;
    t.injectionRate = 0.10;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.run(20000);
    // 50/50 short/long: mean packet size 2.5 flits.
    const double mean = static_cast<double>(h.metrics.generatedFlits) /
                        static_cast<double>(h.metrics.generatedPackets);
    EXPECT_NEAR(mean, 2.5, 0.1);
}

TEST(Generator, HotspotDestinations)
{
    TrafficConfig t;
    t.pattern = TrafficPattern::Hotspot;
    t.hotspotNode = 3;
    GenHarness h(t);
    h.run(2000);
    for (const auto &inj : h.injectors)
        for (const auto *pkt : inj.queue())
            EXPECT_EQ(pkt->dst, 3);
}

TEST(Generator, TornadoDestinations)
{
    TrafficConfig t;
    t.pattern = TrafficPattern::Tornado;
    GenHarness h(t);
    h.run(2000);
    for (const auto &inj : h.injectors) {
        const NodeId src = h.col.nodeOfFlow(inj.flow);
        for (const auto *pkt : inj.queue())
            EXPECT_EQ(pkt->dst, (src + 4) % 8);
    }
}

TEST(Generator, UniformExcludesSelfAndCoversAll)
{
    TrafficConfig t;
    t.pattern = TrafficPattern::UniformRandom;
    t.injectionRate = 0.2;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.run(20000);
    std::vector<std::set<NodeId>> dests(8);
    for (const auto &inj : h.injectors) {
        const NodeId src = h.col.nodeOfFlow(inj.flow);
        for (const auto *pkt : inj.queue()) {
            EXPECT_NE(pkt->dst, src);
            dests[static_cast<std::size_t>(src)].insert(pkt->dst);
        }
    }
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_EQ(dests[static_cast<std::size_t>(n)].size(), 7u);
}

TEST(Generator, ActiveFlowMaskAndPerFlowRates)
{
    TrafficConfig t;
    t.pattern = TrafficPattern::Hotspot;
    t.activeFlows.assign(64, false);
    t.activeFlows[5] = true;
    t.flowRates.assign(64, -1.0);
    t.flowRates[5] = 0.2;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.run(20000);
    for (const auto &inj : h.injectors) {
        if (inj.flow == 5)
            EXPECT_GT(inj.queue().size(), 0u);
        else
            EXPECT_EQ(inj.queue().size(), 0u);
    }
    const double rate =
        static_cast<double>(h.metrics.generatedFlits) / 20000.0;
    EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(Generator, GenUntilStopsGeneration)
{
    TrafficConfig t;
    t.injectionRate = 0.1;
    t.genUntil = 1000;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.run(5000);
    const auto after1k = h.metrics.generatedPackets;
    EXPECT_GT(after1k, 0u);
    h.run(5000); // cycles restart at 0 in this harness; use a fresh one
    GenHarness h2(t);
    for (Cycle c = 0; c < 5000; ++c)
        h2.gen->tick(c, h2.pool, h2.injectors, h2.metrics);
    GenHarness h3(t);
    for (Cycle c = 0; c < 1000; ++c)
        h3.gen->tick(c, h3.pool, h3.injectors, h3.metrics);
    EXPECT_EQ(h2.metrics.generatedPackets, h3.metrics.generatedPackets);
}

TEST(Generator, QueueDepthSuppression)
{
    TrafficConfig t;
    t.injectionRate = 0.5;
    t.maxQueueDepth = 10;
    GenHarness h(t);
    h.run(10000);
    for (const auto &inj : h.injectors)
        EXPECT_LE(inj.queue().size(), 10u);
    EXPECT_GT(h.gen->suppressed(), 0u);
}

TEST(Generator, DeterministicAcrossRuns)
{
    TrafficConfig t;
    t.injectionRate = 0.08;
    t.seed = 777;
    GenHarness a(t), b(t);
    a.run(5000);
    b.run(5000);
    ASSERT_EQ(a.metrics.generatedPackets, b.metrics.generatedPackets);
    for (FlowId f = 0; f < 64; ++f) {
        const auto &qa = a.injectors[static_cast<std::size_t>(f)].queue();
        const auto &qb = b.injectors[static_cast<std::size_t>(f)].queue();
        ASSERT_EQ(qa.size(), qb.size());
        for (std::size_t i = 0; i < qa.size(); ++i) {
            EXPECT_EQ(qa[i]->dst, qb[i]->dst);
            EXPECT_EQ(qa[i]->sizeFlits, qb[i]->sizeFlits);
            EXPECT_EQ(qa[i]->genCycle, qb[i]->genCycle);
        }
    }
}

TEST(Generator, SeedChangesTraffic)
{
    TrafficConfig t;
    t.injectionRate = 0.08;
    t.seed = 1;
    GenHarness a(t);
    t.seed = 2;
    GenHarness b(t);
    a.run(5000);
    b.run(5000);
    // Statistically similar volume but different sequences.
    EXPECT_NEAR(static_cast<double>(a.metrics.generatedPackets),
                static_cast<double>(b.metrics.generatedPackets),
                0.2 * static_cast<double>(a.metrics.generatedPackets));
}

TEST(Generator, MeasuredFlagFollowsWindow)
{
    TrafficConfig t;
    t.injectionRate = 0.2;
    t.maxQueueDepth = 1u << 20;
    GenHarness h(t);
    h.metrics.measureStart = 1000;
    h.metrics.measureEnd = 2000;
    h.run(3000);
    for (const auto &inj : h.injectors) {
        for (const auto *pkt : inj.queue()) {
            EXPECT_EQ(pkt->measured,
                      pkt->genCycle >= 1000 && pkt->genCycle < 2000);
        }
    }
    EXPECT_GT(h.metrics.measuredGenerated, 0u);
}

/// A bursty generator over 64 flows whose top quarter is inactive from
/// the start; run() stamps cycles from an explicit range so a harness can
/// resume at any cycle.
struct BurstyHarness {
    BurstyHarness() : metrics(64)
    {
        col.numNodes = 8;
        col.injectorsPerNode = 8;
        col.canonicalize();
        injectors.resize(64);
        for (FlowId f = 0; f < 64; ++f)
            injectors[static_cast<std::size_t>(f)].flow = f;
        TrafficConfig t;
        t.injectionRate = 0.08;
        t.seed = 4242;
        t.maxQueueDepth = 1u << 20;
        t.activeFlows.assign(64, true);
        for (std::size_t f = 48; f < 64; ++f)
            t.activeFlows[f] = false;
        WorkloadSpec spec;
        spec.kind = WorkloadKind::Bursty;
        spec.burstOn = 0.05;
        spec.burstOff = 0.05;
        spec.burstGain = 3.0;
        gen = std::make_unique<TrafficGenerator>(col, t, spec);
    }

    void run(Cycle from, Cycle to)
    {
        for (Cycle c = from; c < to; ++c)
            gen->tick(c, pool, injectors, metrics);
    }

    bool onState(FlowId f) const
    {
        return static_cast<const OnOffModulator *>(gen->modulator())
            ->onState(f);
    }

    /// (genCycle - shift, dst, size) of flow `f`'s packets generated in
    /// [from, to).
    std::vector<std::tuple<Cycle, NodeId, int>>
    packets(FlowId f, Cycle from, Cycle to, Cycle shift = 0) const
    {
        std::vector<std::tuple<Cycle, NodeId, int>> out;
        for (const NetPacket *pkt :
             injectors[static_cast<std::size_t>(f)].queue()) {
            if (pkt->genCycle >= from && pkt->genCycle < to)
                out.emplace_back(pkt->genCycle - shift, pkt->dst,
                                 pkt->sizeFlits);
        }
        return out;
    }

    ColumnConfig col;
    PacketPool pool;
    std::vector<InjectorQueue> injectors;
    SimMetrics metrics;
    std::unique_ptr<TrafficGenerator> gen;
};

TEST(Generator, LiveFlowsTrackActivityAndRate)
{
    BurstyHarness h;
    ASSERT_EQ(h.gen->liveFlows().size(), 48u);
    h.gen->setFlowActive(7, false);
    h.gen->setFlowRate(9, 0.0);
    h.gen->setFlowActive(50, true);
    std::vector<FlowId> expect;
    for (FlowId f = 0; f < 48; ++f) {
        if (f != 7 && f != 9)
            expect.push_back(f);
    }
    expect.push_back(50);
    EXPECT_EQ(h.gen->liveFlows(), expect);
    h.gen->setFlowActive(7, true);
    h.gen->setFlowRate(9, 0.05);
    expect.clear();
    for (FlowId f = 0; f < 48; ++f)
        expect.push_back(f);
    expect.push_back(50);
    EXPECT_EQ(h.gen->liveFlows(), expect);
}

TEST(Generator, EmittedListsThisTicksFlowsInOrder)
{
    BurstyHarness h;
    std::vector<std::size_t> before(64, 0);
    for (Cycle c = 0; c < 2000; ++c) {
        h.gen->tick(c, h.pool, h.injectors, h.metrics);
        std::vector<FlowId> grew;
        for (FlowId f = 0; f < 64; ++f) {
            const auto idx = static_cast<std::size_t>(f);
            const std::size_t n = h.injectors[idx].queue().size();
            if (n != before[idx])
                grew.push_back(f);
            before[idx] = n;
        }
        ASSERT_EQ(h.gen->emitted(), grew) << "cycle " << c;
    }
    EXPECT_GT(h.metrics.generatedPackets, 0u);
}

TEST(Generator, BurstyFlowFreezesWhileOffAndResumesDeterministically)
{
    // `ref` keeps flow 7 live throughout; `gap` switches it off over
    // [1000, 3000). A frozen flow draws nothing — neither its packet
    // stream nor its ON/OFF chain moves — so after switching back on
    // `gap` replays exactly what `ref` generated from cycle 1000 on,
    // 2000 cycles late, and every other flow is untouched.
    BurstyHarness ref;
    BurstyHarness gap;
    ref.run(0, 1000);
    gap.run(0, 1000);
    gap.gen->setFlowActive(7, false);
    const bool onAtPause = gap.onState(7);
    gap.run(1000, 3000);
    EXPECT_EQ(gap.onState(7), onAtPause);
    gap.gen->setFlowActive(7, true);
    ref.run(1000, 3000);
    gap.run(3000, 5000);

    EXPECT_EQ(gap.packets(7, 0, 1000), ref.packets(7, 0, 1000));
    EXPECT_TRUE(gap.packets(7, 1000, 3000).empty());
    const auto resumed = gap.packets(7, 3000, 5000, 2000);
    EXPECT_FALSE(resumed.empty());
    EXPECT_EQ(resumed, ref.packets(7, 1000, 3000));
    for (FlowId f = 0; f < 48; ++f) {
        if (f != 7) {
            EXPECT_EQ(gap.packets(f, 0, 3000), ref.packets(f, 0, 3000))
                << "flow " << f;
        }
    }
    for (FlowId f = 48; f < 64; ++f)
        EXPECT_TRUE(gap.packets(f, 0, 5000).empty()) << "flow " << f;
}

TEST(Generator, BurstyStateRestoresMidBurstWithFrozenFlows)
{
    // Checkpoint at cycle 2000: flow 7 is switched off, flows 48..63 were
    // never live, and some live chains are mid-burst. A fresh generator
    // given the same flow configuration and the packed words must
    // continue exactly like the original, through flow 7's resumption.
    BurstyHarness live;
    live.run(0, 1000);
    live.gen->setFlowActive(7, false);
    live.run(1000, 2000);
    int on = 0;
    for (FlowId f = 0; f < 48; ++f)
        on += live.onState(f) ? 1 : 0;
    EXPECT_GT(on, 0);
    EXPECT_LT(on, 48);
    const std::vector<std::uint64_t> words = live.gen->packState();
    EXPECT_EQ(words.size(), 64u * 4 + 1 + 64u * 4 + 1);

    BurstyHarness resumed;
    resumed.gen->setFlowActive(7, false);
    resumed.gen->unpackState(words);
    for (FlowId f = 0; f < 64; ++f)
        ASSERT_EQ(resumed.onState(f), live.onState(f)) << "flow " << f;
    EXPECT_EQ(resumed.gen->packState(), words);

    for (BurstyHarness *h : {&live, &resumed}) {
        h->run(2000, 3000);
        h->gen->setFlowActive(7, true);
        h->run(3000, 5000);
    }
    for (FlowId f = 0; f < 64; ++f) {
        EXPECT_EQ(resumed.packets(f, 2000, 5000),
                  live.packets(f, 2000, 5000))
            << "flow " << f;
    }
    EXPECT_EQ(resumed.gen->packState(), live.gen->packState());
}

} // namespace
} // namespace taqos
