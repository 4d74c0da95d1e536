/// \file topology.h
/// The five shared-region interconnect configurations evaluated by the
/// paper (Table 1), and the column configuration record.
#pragma once

#include <optional>
#include <string>

#include "common/types.h"
#include "qos/pvc.h"

namespace taqos {

enum class TopologyKind {
    MeshX1, ///< baseline 1-D mesh
    MeshX2, ///< 2-way replicated channels, single crossbar
    MeshX4, ///< 4-way replicated channels (MECS/DPS-equal bisection)
    Mecs,   ///< point-to-multipoint express channels, asymmetric router
    Dps,    ///< Destination Partitioned Subnets (this paper's proposal)
    /// Extension: flattened butterfly (Kim et al.), which Sec. 2.2 notes
    /// as an alternative richly connected choice — dedicated
    /// point-to-point channels between every node pair, so each input
    /// port keeps its own crossbar port (higher switch radix than MECS).
    FlatButterfly,
};

/// The five configurations the paper evaluates (Table 1). The flattened
/// butterfly extension is benchmarked separately (bench/ablation_fbfly).
inline constexpr TopologyKind kAllTopologies[] = {
    TopologyKind::MeshX1, TopologyKind::MeshX2, TopologyKind::MeshX4,
    TopologyKind::Mecs, TopologyKind::Dps,
};

const char *topologyName(TopologyKind kind);
std::optional<TopologyKind> parseTopology(const std::string &name);
/// Every name parseTopology accepts — the evaluated five, the fbfly
/// extension and the aliases — for unknown-topology diagnostics.
std::string topologyNames();

/// Channel replication degree (mesh xN); 1 for MECS/DPS.
int replicationOf(TopologyKind kind);

/// Table 1: VCs per network port (round-trip-credit provisioning).
int defaultVcsPerPort(TopologyKind kind);

/// Table 1: router pipeline depth (mesh/DPS 2: VA, XT; MECS 3: VA-local,
/// VA-global, XT).
int pipelineDepth(TopologyKind kind);

/// Configuration of one QOS-protected shared column.
struct ColumnConfig {
    TopologyKind topology = TopologyKind::Dps;
    QosMode mode = QosMode::Pvc;

    /// Nodes in the column (the paper's 8x8 grid has 8 per column).
    int numNodes = 8;

    /// Traffic sources per node: 1 terminal + 7 row inputs (4 east MECS
    /// row channels sharing one crossbar port, 3 west).
    int injectorsPerNode = 8;
    int eastRowInjectors = 4;

    /// Flit capacity of each VC (covers the largest packet — VCT).
    int flitsPerVc = 4;

    /// VCs per network port; 0 selects the Table 1 default per topology.
    int vcsPerPort = 0;

    /// Ejection VCs at each terminal.
    int ejectionVcs = 2;

    PvcParams pvc;

    int numFlows() const { return numNodes * injectorsPerNode; }
    int effectiveVcs() const
    {
        return vcsPerPort > 0 ? vcsPerPort : defaultVcsPerPort(topology);
    }
    FlowId flowOf(NodeId node, int injector) const
    {
        return node * injectorsPerNode + injector;
    }
    NodeId nodeOfFlow(FlowId flow) const { return flow / injectorsPerNode; }

    /// Normalize dependent fields (flow count) before building.
    void canonicalize() { pvc.numFlows = numFlows(); }
};

} // namespace taqos
