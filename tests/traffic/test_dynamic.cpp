/// The dynamic-load machinery behind WorkloadSpec: the ON/OFF Markov
/// modulator (duty cycle, determinism, checkpoint words), the diurnal
/// triangle ramp, the deterministic trace-inflation + window transform
/// (thinning at x0.5 is a strict subset of x1), and the
/// makeTrafficSource factory that every embedding routes through.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exp/json_writer.h"
#include "traffic/dynamic.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

WorkloadSpec
burstySpec(double on = 0.01, double off = 0.01, double gain = 4.0)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Bursty;
    spec.burstOn = on;
    spec.burstOff = off;
    spec.burstGain = gain;
    return spec;
}

/// Flows 0..n-1: every chain live, as a generator with all flows live
/// would pass them.
std::vector<FlowId>
allFlows(int n)
{
    std::vector<FlowId> flows(static_cast<std::size_t>(n));
    for (int f = 0; f < n; ++f)
        flows[static_cast<std::size_t>(f)] = f;
    return flows;
}

/// Each kept entry as a comparable tuple (the transform may rebase
/// cycles, so identity is the full entry, not the index).
std::set<std::tuple<Cycle, FlowId, NodeId, int>>
entrySet(const TrafficTrace &trace)
{
    std::set<std::tuple<Cycle, FlowId, NodeId, int>> out;
    for (const auto &e : trace.entries())
        out.insert({e.cycle, e.flow, e.dst, e.sizeFlits});
    return out;
}

TEST(OnOffModulator, DutyCycleMatchesStationaryDistribution)
{
    // on == off -> the chain spends half its time ON in steady state.
    const int flows = 64;
    OnOffModulator mod(burstySpec(0.01, 0.01), flows, 42);
    const std::vector<FlowId> live = allFlows(flows);
    std::uint64_t onCycles = 0;
    const int cycles = 50000;
    for (int c = 0; c < cycles; ++c) {
        mod.advance(static_cast<Cycle>(c), live);
        for (FlowId f = 0; f < flows; ++f)
            onCycles += mod.onState(f) ? 1 : 0;
    }
    const double duty =
        static_cast<double>(onCycles) / (static_cast<double>(cycles) * flows);
    EXPECT_NEAR(duty, 0.5, 0.05);
}

TEST(OnOffModulator, ScaleIsGainOnAndZeroOff)
{
    const WorkloadSpec spec = burstySpec(0.05, 0.05, 6.0);
    OnOffModulator mod(spec, 16, 7);
    const std::vector<FlowId> live = allFlows(16);
    for (int c = 0; c < 2000; ++c) {
        mod.advance(static_cast<Cycle>(c), live);
        for (FlowId f = 0; f < 16; ++f) {
            const double s = mod.scaleOf(f);
            EXPECT_DOUBLE_EQ(s, mod.onState(f) ? 6.0 : 0.0);
        }
    }
}

TEST(OnOffModulator, IndependentStreamsPerFlowAndSeed)
{
    // Same seed -> same trajectory; different seed -> different one.
    OnOffModulator a(burstySpec(), 32, 1);
    OnOffModulator b(burstySpec(), 32, 1);
    OnOffModulator c(burstySpec(), 32, 2);
    const std::vector<FlowId> live = allFlows(32);
    bool differs = false;
    for (int cyc = 0; cyc < 5000; ++cyc) {
        a.advance(static_cast<Cycle>(cyc), live);
        b.advance(static_cast<Cycle>(cyc), live);
        c.advance(static_cast<Cycle>(cyc), live);
        for (FlowId f = 0; f < 32; ++f) {
            ASSERT_EQ(a.onState(f), b.onState(f));
            differs = differs || a.onState(f) != c.onState(f);
        }
    }
    EXPECT_TRUE(differs);
}

TEST(OnOffModulator, PackUnpackResumesBitIdentically)
{
    OnOffModulator live(burstySpec(0.004, 0.02, 3.0), 48, 99);
    const std::vector<FlowId> flows = allFlows(48);
    for (int c = 0; c < 1234; ++c)
        live.advance(static_cast<Cycle>(c), flows);
    const auto words = live.packState();
    EXPECT_FALSE(words.empty());

    OnOffModulator resumed(burstySpec(0.004, 0.02, 3.0), 48, 99);
    resumed.unpackState(words);
    for (int c = 1234; c < 4000; ++c) {
        live.advance(static_cast<Cycle>(c), flows);
        resumed.advance(static_cast<Cycle>(c), flows);
        for (FlowId f = 0; f < 48; ++f)
            ASSERT_EQ(live.onState(f), resumed.onState(f))
                << "cycle " << c << " flow " << f;
    }
}

TEST(RampModulator, TriangleWaveIsBoundedAndSymmetric)
{
    WorkloadSpec spec;
    spec.kind = WorkloadKind::Ramp;
    spec.rampLow = 0.2;
    spec.rampHigh = 1.8;
    spec.rampPeriod = 1000;

    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 0), 0.2);
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 500), 1.8);
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 1000), 0.2);
    for (Cycle c = 0; c <= 3000; ++c) {
        const double s = RampModulator::scaleAt(spec, c);
        ASSERT_GE(s, 0.2);
        ASSERT_LE(s, 1.8);
        // Periodic, and the falling half mirrors the rising half.
        ASSERT_DOUBLE_EQ(s, RampModulator::scaleAt(spec, c + 1000));
    }
    EXPECT_DOUBLE_EQ(RampModulator::scaleAt(spec, 250),
                     RampModulator::scaleAt(spec, 750));

    RampModulator mod(spec);
    for (Cycle c = 0; c < 2500; c += 7) {
        mod.advance(c, {});
        EXPECT_DOUBLE_EQ(mod.scaleOf(0), RampModulator::scaleAt(spec, c));
        EXPECT_DOUBLE_EQ(mod.scaleOf(63), mod.scaleOf(0));
    }
    // Stateless: nothing to checkpoint.
    EXPECT_TRUE(mod.packState().empty());
}

TEST(MakeRateModulator, OnlyModulatedKindsGetOne)
{
    WorkloadSpec spec;
    EXPECT_EQ(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Bursty;
    EXPECT_NE(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Ramp;
    EXPECT_NE(makeRateModulator(spec, 8, 1), nullptr);
    spec.kind = WorkloadKind::Churn;
    EXPECT_EQ(makeRateModulator(spec, 8, 1), nullptr);
}

TEST(ReplayWindow, ClipsAndRebasesToCycleZero)
{
    TrafficTrace trace;
    for (Cycle c = 0; c < 100; ++c)
        trace.append(TraceEntry{c, static_cast<FlowId>(c % 64),
                                static_cast<NodeId>(c % 8), 1});

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = "mem";
    spec.windowBegin = 10;
    spec.windowEnd = 20;

    const TrafficTrace windowed = applyReplayWindow(trace, spec);
    ASSERT_EQ(windowed.size(), 10u);
    for (std::size_t i = 0; i < windowed.size(); ++i) {
        EXPECT_EQ(windowed.entries()[i].cycle, static_cast<Cycle>(i));
        EXPECT_EQ(windowed.entries()[i].flow,
                  static_cast<FlowId>((i + 10) % 64));
    }
}

TEST(ReplayWindow, InflationIsDeterministicMonotoneThinning)
{
    TrafficTrace trace;
    for (Cycle c = 0; c < 4000; ++c)
        trace.append(TraceEntry{c, static_cast<FlowId>(c % 64),
                                static_cast<NodeId>(c % 8),
                                1 + static_cast<int>(c % 4)});

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = "mem";

    spec.inflate = 1.0;
    const auto full = entrySet(applyReplayWindow(trace, spec));
    EXPECT_EQ(full.size(), 4000u); // x1 keeps everything

    spec.inflate = 0.5;
    const auto half = entrySet(applyReplayWindow(trace, spec));
    spec.inflate = 0.25;
    const auto quarter = entrySet(applyReplayWindow(trace, spec));

    // Deterministic: the same spec thins to the same set every time.
    spec.inflate = 0.5;
    EXPECT_EQ(half, entrySet(applyReplayWindow(trace, spec)));

    // Thinning rate tracks the inflation factor.
    EXPECT_NEAR(static_cast<double>(half.size()), 2000.0, 200.0);
    EXPECT_NEAR(static_cast<double>(quarter.size()), 1000.0, 150.0);

    // Monotone: a lower factor keeps a strict subset of a higher one.
    EXPECT_TRUE(std::includes(full.begin(), full.end(), half.begin(),
                              half.end()));
    EXPECT_TRUE(std::includes(half.begin(), half.end(), quarter.begin(),
                              quarter.end()));
    EXPECT_LT(quarter.size(), half.size());
    EXPECT_LT(half.size(), full.size());
}

TEST(MakeTrafficSource, RoutesEveryKindToItsSource)
{
    ColumnConfig col;
    col.canonicalize();
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;

    WorkloadSpec steady;
    auto src = makeTrafficSource(steady, col, traffic);
    ASSERT_NE(src, nullptr);
    auto *gen = dynamic_cast<TrafficGenerator *>(src.get());
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->modulator(), nullptr);

    auto burstySrc = makeTrafficSource(burstySpec(), col, traffic);
    auto *burstyGen = dynamic_cast<TrafficGenerator *>(burstySrc.get());
    ASSERT_NE(burstyGen, nullptr);
    EXPECT_NE(burstyGen->modulator(), nullptr);

    // Churn cells keep a plain generator (the driver reshapes it from
    // outside at frame boundaries).
    WorkloadSpec churn;
    churn.kind = WorkloadKind::Churn;
    auto churnSrc = makeTrafficSource(churn, col, traffic);
    auto *churnGen = dynamic_cast<TrafficGenerator *>(churnSrc.get());
    ASSERT_NE(churnGen, nullptr);
    EXPECT_EQ(churnGen->modulator(), nullptr);

    const std::string path = ::testing::TempDir() + "dyn_factory.csv";
    const TrafficTrace recorded = TrafficTrace::record(col, traffic, 2000);
    ASSERT_TRUE(writeTextFile(path, recorded.toCsv()));
    WorkloadSpec trace;
    trace.kind = WorkloadKind::Trace;
    trace.tracePath = path;
    std::string err;
    auto traceSrc = makeTrafficSource(trace, col, traffic, &err);
    ASSERT_NE(traceSrc, nullptr) << err;
    EXPECT_NE(dynamic_cast<TraceReplayer *>(traceSrc.get()), nullptr);
}

TEST(MakeTrafficSource, TraceErrorsAreDiagnosed)
{
    ColumnConfig col;
    col.canonicalize();
    TrafficConfig traffic;

    WorkloadSpec spec;
    spec.kind = WorkloadKind::Trace;
    spec.tracePath = ::testing::TempDir() + "no_such_trace.csv";
    std::string err;
    EXPECT_EQ(makeTrafficSource(spec, col, traffic, &err), nullptr);
    EXPECT_EQ(err, spec.tracePath + ": cannot open trace file");

    const std::string bad = ::testing::TempDir() + "dyn_bad_trace.csv";
    ASSERT_TRUE(writeTextFile(bad, "cycle,flow,dst,size\n5,x,0,1\n"));
    spec.tracePath = bad;
    EXPECT_EQ(makeTrafficSource(spec, col, traffic, &err), nullptr);
    EXPECT_EQ(err, bad + ": trace csv line 2: bad flow 'x'");
}

} // namespace
} // namespace taqos
