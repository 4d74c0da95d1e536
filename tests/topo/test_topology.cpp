#include <gtest/gtest.h>

#include "common/strings.h"
#include "topo/topology.h"

namespace taqos {
namespace {

TEST(Topology, NamesRoundTrip)
{
    for (auto kind : kAllTopologies) {
        const auto parsed = parseTopology(topologyName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
}

TEST(Topology, ParseAliasesAndCase)
{
    EXPECT_EQ(parseTopology("MECS"), TopologyKind::Mecs);
    EXPECT_EQ(parseTopology(" dps "), TopologyKind::Dps);
    EXPECT_EQ(parseTopology("mesh"), TopologyKind::MeshX1);
    EXPECT_FALSE(parseTopology("torus").has_value());
}

TEST(Topology, DiagnosticListsEveryAcceptedName)
{
    // The unknown-topology hint names exactly what parses: the evaluated
    // five, the fbfly extension, and the aliases.
    const std::string names = topologyNames();
    int listed = 0;
    for (const auto &name : strSplit(names, ' ')) {
        EXPECT_TRUE(parseTopology(name).has_value()) << name;
        ++listed;
    }
    EXPECT_EQ(listed, 9);
    EXPECT_EQ(parseTopology("fbfly"), TopologyKind::FlatButterfly);
    EXPECT_NE(names.find("fbfly"), std::string::npos);
}

TEST(Topology, Table1VcProvisioning)
{
    EXPECT_EQ(defaultVcsPerPort(TopologyKind::MeshX1), 6);
    EXPECT_EQ(defaultVcsPerPort(TopologyKind::MeshX2), 6);
    EXPECT_EQ(defaultVcsPerPort(TopologyKind::MeshX4), 6);
    EXPECT_EQ(defaultVcsPerPort(TopologyKind::Mecs), 14);
    EXPECT_EQ(defaultVcsPerPort(TopologyKind::Dps), 5);
}

TEST(Topology, Table1Pipelines)
{
    EXPECT_EQ(pipelineDepth(TopologyKind::MeshX1), 2);
    EXPECT_EQ(pipelineDepth(TopologyKind::Dps), 2);
    EXPECT_EQ(pipelineDepth(TopologyKind::Mecs), 3);
}

TEST(Topology, Replication)
{
    EXPECT_EQ(replicationOf(TopologyKind::MeshX1), 1);
    EXPECT_EQ(replicationOf(TopologyKind::MeshX2), 2);
    EXPECT_EQ(replicationOf(TopologyKind::MeshX4), 4);
    EXPECT_EQ(replicationOf(TopologyKind::Mecs), 1);
    EXPECT_EQ(replicationOf(TopologyKind::Dps), 1);
}

TEST(ColumnConfig, FlowIndexing)
{
    ColumnConfig col;
    EXPECT_EQ(col.numFlows(), 64);
    EXPECT_EQ(col.flowOf(0, 0), 0);
    EXPECT_EQ(col.flowOf(3, 5), 29);
    EXPECT_EQ(col.nodeOfFlow(29), 3);
    EXPECT_EQ(col.nodeOfFlow(63), 7);
}

TEST(ColumnConfig, CanonicalizeSyncsFlowCount)
{
    ColumnConfig col;
    col.numNodes = 4;
    col.injectorsPerNode = 2;
    col.canonicalize();
    EXPECT_EQ(col.pvc.numFlows, 8);
}

TEST(ColumnConfig, EffectiveVcsOverride)
{
    ColumnConfig col;
    col.topology = TopologyKind::Mecs;
    EXPECT_EQ(col.effectiveVcs(), 14);
    col.vcsPerPort = 9;
    EXPECT_EQ(col.effectiveVcs(), 9);
}

} // namespace
} // namespace taqos
