/// Pins the chip consolidation cells: a small grid of rates x placements
/// x {steady, bursty, churn} is compared, byte for byte, against the
/// canonical taqos-sweep/v1 record recorded before the whole-chip
/// scenario moved onto the fabric engine. A change to any cell metric,
/// to the per-VM attribution or to the churn schedule shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiments.h"
#include "exp/sweep.h"

namespace taqos {
namespace {

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(ChipCells, PlacementsAndWorkloadsMatchTheRecordedGrid)
{
    // measureEnd (52000) passes the first 50000-cycle PVC frame, so
    // every churn cell fires one tenant epoch.
    SweepSpec spec = chipConsolidationSpec(TopologyKind::Dps, 0.05,
                                           RunPhases{2000, 50000, 8000});
    spec.rates = {0.05, 0.2}; // 0.2 preempts under steady load too
    spec.placements = {0, 1, 2};
    spec.workloadSpecs = {
        WorkloadSpec{},
        *WorkloadSpec::parse("bursty:on=0.002,off=0.01,gain=4"),
        *WorkloadSpec::parse("churn:frames=1,maxvms=4,attack=1"),
    };
    const SweepResult res = SweepRunner().run(spec);
    ASSERT_EQ(res.cells.size(), 18u);

    int churnCells = 0;
    for (const CellResult &cell : res.cells) {
        EXPECT_GE(cell.get("drain_cycle"), 0.0);
        if (cell.spec.workloadSpec.kind != WorkloadKind::Churn)
            continue;
        ++churnCells;
        EXPECT_GE(cell.get("churn_epochs"), 1.0);
    }
    EXPECT_EQ(churnCells, 6);

    const std::string json = res.toJson();
    EXPECT_EQ(fnv1a(json), 0x42192727230826b3ull) << json;
}

} // namespace
} // namespace taqos
