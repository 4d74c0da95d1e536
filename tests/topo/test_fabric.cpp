/// FabricSpec finalization: catchment partitioning, the chip-major
/// node/flow id spaces, remote-slot mapping, per-block policy cycling
/// and the structural counts of the built multi-chip network.
#include <gtest/gtest.h>

#include "topo/fabric.h"

namespace taqos {
namespace {

FabricSpec
wideSpec(int chips)
{
    // 16x16-node chips with two shared columns: the asymmetric-catchment
    // geometry (8 vs 6 compute columns).
    FabricSpec spec;
    spec.chips = chips;
    spec.chip.tilesX = 32;
    spec.chip.tilesY = 32;
    spec.chip.sharedColumns = {4, 12};
    return spec;
}

TEST(FabricGeometry, DefaultChipHasOneFullCatchment)
{
    auto net = FabricNetwork::build(FabricSpec{});
    EXPECT_EQ(net->chips(), 1);
    EXPECT_EQ(net->blocks(), 1);
    EXPECT_EQ(net->gridHeight(), 8);
    EXPECT_EQ(net->computePerRow(), 7);
    const std::vector<int> want = {0, 1, 2, 3, 5, 6, 7};
    EXPECT_EQ(net->catchment(0), want);
    EXPECT_EQ(net->slotsPerNode(), 8); // terminal + 7, no remote slots
    EXPECT_EQ(net->remoteSlots(), 0);
    EXPECT_EQ(net->totalFlows(), 64);
    EXPECT_EQ(net->numNodes(), 64);
}

TEST(FabricGeometry, TwoColumnsSplitTheGridByNearestColumn)
{
    auto net = FabricNetwork::build(wideSpec(1));
    ASSERT_EQ(net->blocksPerChip(), 2);
    const std::vector<int> cat0 = {0, 1, 2, 3, 5, 6, 7, 8};
    const std::vector<int> cat1 = {9, 10, 11, 13, 14, 15};
    EXPECT_EQ(net->catchment(0), cat0);
    EXPECT_EQ(net->catchment(1), cat1);
    // Slots size to the LARGEST catchment; block 1's trailing slots pad.
    EXPECT_EQ(net->slotsPerNode(), 9);
    EXPECT_TRUE(net->slotUsable(1, 6));
    EXPECT_FALSE(net->slotUsable(1, 7));
    EXPECT_FALSE(net->slotUsable(1, 8));
    EXPECT_TRUE(net->slotUsable(0, 8));
    for (int x : cat0)
        EXPECT_EQ(net->blockOfX(x), 0) << "x=" << x;
    for (int x : cat1)
        EXPECT_EQ(net->blockOfX(x), 1) << "x=" << x;
}

TEST(FabricGeometry, MultiChipIdSpacesAreChipMajor)
{
    auto net = FabricNetwork::build(wideSpec(4));
    EXPECT_EQ(net->numNodes(), 4 * 256);
    EXPECT_GE(net->numNodes(), 1024); // the kilo-node acceptance floor
    EXPECT_EQ(net->blocks(), 8);
    // 1 terminal + max catchment 8 + 3 remote chips.
    EXPECT_EQ(net->slotsPerNode(), 12);
    EXPECT_EQ(net->totalFlows(), 8 * 16 * 12);

    // Block nodes come first within a chip, then compute nodes row-major.
    for (int c = 0; c < 4; ++c) {
        for (int j = 0; j < 2; ++j) {
            const int g = c * 2 + j;
            EXPECT_EQ(net->blockBase(g), c * 256 + j * 16);
            for (int y = 0; y < 16; ++y) {
                const NodeId n = net->blockNodeId(c, j, y);
                EXPECT_TRUE(net->isBlockNode(n));
                EXPECT_EQ(net->chipOfNode(n), c);
                EXPECT_EQ(net->blockOfNode(n), g);
            }
        }
        EXPECT_FALSE(net->isBlockNode(net->computeNodeId(c, 0, 0)));
        EXPECT_EQ(net->chipOfNode(net->computeNodeId(c, 15, 15)), c);
    }
    // Compute ids are dense after the block nodes, ascending by rank.
    EXPECT_EQ(net->computeNodeId(0, 0, 0), 32);
    EXPECT_EQ(net->computeNodeId(0, 5, 0), 36); // rank skips shared col 4
    EXPECT_EQ(net->computeNodeId(1, 0, 0), 256 + 32);
}

TEST(FabricGeometry, FlowSlotsRoundTrip)
{
    auto net = FabricNetwork::build(wideSpec(4));
    const int fpb = net->flowsPerBlock();
    const int slots = net->slotsPerNode();
    for (FlowId f : {0, 17, fpb - 1, fpb, 3 * fpb + 5 * slots + 2,
                     net->totalFlows() - 1}) {
        const int g = net->blockOfFlow(f);
        const int y = net->rowOfFlow(f);
        const int k = net->slotOfFlow(f);
        EXPECT_EQ(f, g * fpb + y * slots + k) << "f=" << f;
    }
}

TEST(FabricGeometry, RemoteSlotMapsEveryOrderedChipPairOnce)
{
    auto net = FabricNetwork::build(wideSpec(4));
    const int first = 1 + 8; // terminal + max catchment
    for (int dest = 0; dest < 4; ++dest) {
        std::vector<bool> seen(4, false);
        for (int k = first; k < net->slotsPerNode(); ++k) {
            const int src = net->remoteSourceChip(dest, k);
            EXPECT_NE(src, dest);
            EXPECT_FALSE(seen[static_cast<std::size_t>(src)]);
            seen[static_cast<std::size_t>(src)] = true;
        }
    }
    // The wiring inverse: source chip c originating toward dest chip cd
    // computes slot k; remoteSourceChip(cd, k) must give c back.
    for (int c = 0; c < 4; ++c) {
        for (int cd = 0; cd < 4; ++cd) {
            if (cd == c)
                continue;
            const int k = first + (c - cd - 1 + 4) % 4;
            EXPECT_EQ(net->remoteSourceChip(cd, k), c)
                << "c=" << c << " cd=" << cd;
        }
    }
}

TEST(FabricBuild, StructuralCountsMatchTheSpec)
{
    auto net = FabricNetwork::build(wideSpec(2));
    EXPECT_EQ(net->numNodes(), 512);
    EXPECT_EQ(static_cast<int>(net->injectors().size()),
              net->totalFlows());
    // Two handoffs per (chip, block, row): each catchment has compute
    // nodes on both sides of its column.
    EXPECT_EQ(net->auxPorts().size(),
              static_cast<std::size_t>(2 * 2 * 16 * 2));
    // Every injector the column wiring touched got its flow id.
    for (FlowId f = 0; f < net->totalFlows(); ++f)
        EXPECT_EQ(net->injector(f).flow, f);
    // Row queues exist exactly for the usable non-terminal slots.
    for (FlowId f = 0; f < net->totalFlows(); ++f) {
        const int j = net->blockOfFlow(f) % net->blocksPerChip();
        const int k = net->slotOfFlow(f);
        const bool expectQueue = k != 0 && net->slotUsable(j, k);
        EXPECT_EQ(net->rowQueues()[static_cast<std::size_t>(f)].flow,
                  expectQueue ? f : kInvalidFlow)
            << "flow " << f;
    }
}

TEST(FabricBuild, PerBlockModesCycleAndKeepRouterLocalPolicies)
{
    FabricSpec spec = wideSpec(2);
    spec.column.mode = QosMode::Pvc;
    spec.columnModes = {QosMode::Pvc, QosMode::PerFlowQueue};
    auto net = FabricNetwork::build(spec);
    for (int g = 0; g < net->blocks(); ++g) {
        EXPECT_EQ(net->blockMode(g),
                  g % 2 == 0 ? QosMode::Pvc : QosMode::PerFlowQueue);
        EXPECT_EQ(net->blockCfg(g).mode, net->blockMode(g));
    }
}

TEST(FabricBuild, FrameLenScalesWithTheBlockCount)
{
    FabricSpec spec = wideSpec(2); // 4 blocks
    spec.column.pvc.frameLen = 1000;
    auto scaled = FabricNetwork::build(spec);
    EXPECT_EQ(scaled->pvcParams().frameLen, 4000u);
    spec.scaleFrameLen = false;
    auto flat = FabricNetwork::build(spec);
    EXPECT_EQ(flat->pvcParams().frameLen, 1000u);
}

TEST(FabricSpecValidate, AcceptsBuildableShapesAndNamesTheBadField)
{
    EXPECT_EQ(FabricSpec{}.validate(), "");
    EXPECT_EQ(wideSpec(4).validate(), "");

    const auto diagnosis = [](auto mutate) {
        FabricSpec spec = wideSpec(2);
        mutate(spec);
        return spec.validate();
    };
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chips = 0; }),
              "bad fabric: chips=0, want >= 1");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.tilesX = 0; }),
              "bad fabric: tiles 0x32, want positive multiples of 2 (the "
              "concentration side)");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.tilesY = 3; }),
              "bad fabric: tiles 32x3, want positive multiples of 2 (the "
              "concentration side)");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.tilesY = 2; }),
              "bad fabric: 1 node row(s), columns need >= 2 (tiles >= 4)");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.sharedColumns = {}; }),
              "bad fabric: no shared column, want >= 1");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.sharedColumns = {40}; }),
              "bad fabric: shared column 40 outside the 16-column grid "
              "(0..15)");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.chip.sharedColumns = {0, 0}; }),
              "bad fabric: duplicate shared column 0");
    EXPECT_EQ(diagnosis([](FabricSpec &s) {
                  s.chip.tilesX = 4;
                  s.chip.sharedColumns = {0, 1};
              }),
              "bad fabric: 2 shared column(s) leave no compute column in "
              "the 2-column grid");
    EXPECT_EQ(diagnosis([](FabricSpec &s) { s.linkWidthFlits = 0; }),
              "bad fabric: link delay 8 / width 0, want both >= 1");
}

TEST(FabricLinks, TopologyNamesRoundTrip)
{
    for (LinkTopology k : {LinkTopology::PointToPoint, LinkTopology::Ring})
        EXPECT_EQ(parseLinkTopology(linkTopologyName(k)), k);
    EXPECT_EQ(parseLinkTopology("point-to-point"),
              LinkTopology::PointToPoint);
    EXPECT_FALSE(parseLinkTopology("torus").has_value());
}

} // namespace
} // namespace taqos
