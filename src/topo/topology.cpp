#include "topo/topology.h"

#include <utility>

#include "common/assert.h"
#include "common/strings.h"

namespace taqos {

const char *
topologyName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::MeshX1: return "mesh_x1";
      case TopologyKind::MeshX2: return "mesh_x2";
      case TopologyKind::MeshX4: return "mesh_x4";
      case TopologyKind::Mecs: return "mecs";
      case TopologyKind::Dps: return "dps";
      case TopologyKind::FlatButterfly: return "fbfly";
    }
    return "?";
}

namespace {

/// Accepted spellings beyond the canonical topologyName()s.
constexpr std::pair<const char *, TopologyKind> kTopologyAliases[] = {
    {"mesh", TopologyKind::MeshX1},
    {"flattened_butterfly", TopologyKind::FlatButterfly},
    {"fbf", TopologyKind::FlatButterfly},
};

} // namespace

std::optional<TopologyKind>
parseTopology(const std::string &name)
{
    const std::string n = strLower(strTrim(name));
    for (auto kind : kAllTopologies) {
        if (n == topologyName(kind))
            return kind;
    }
    if (n == topologyName(TopologyKind::FlatButterfly))
        return TopologyKind::FlatButterfly;
    for (const auto &[alias, kind] : kTopologyAliases) {
        if (n == alias)
            return kind;
    }
    return std::nullopt;
}

std::string
topologyNames()
{
    std::string out;
    for (auto kind : kAllTopologies)
        out += std::string(topologyName(kind)) + " ";
    out += topologyName(TopologyKind::FlatButterfly);
    for (const auto &alias : kTopologyAliases)
        out += std::string(" ") + alias.first;
    return out;
}

int
replicationOf(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::MeshX1: return 1;
      case TopologyKind::MeshX2: return 2;
      case TopologyKind::MeshX4: return 4;
      case TopologyKind::Mecs:
      case TopologyKind::Dps:
      case TopologyKind::FlatButterfly: return 1;
    }
    return 1;
}

int
defaultVcsPerPort(TopologyKind kind)
{
    // Table 1: provisioned to cover each topology's round-trip credit
    // latency under worst-case single-flit traffic.
    switch (kind) {
      case TopologyKind::MeshX1:
      case TopologyKind::MeshX2:
      case TopologyKind::MeshX4: return 6;
      case TopologyKind::Mecs: return 14;
      case TopologyKind::Dps: return 5;
      // Dedicated channels: credits return over the span; provision for
      // the longest (7-cycle) round trip plus pipeline slack.
      case TopologyKind::FlatButterfly: return 10;
    }
    return 6;
}

int
pipelineDepth(TopologyKind kind)
{
    // Table 1: mesh/DPS arbitrate in one cycle (VA, XT); MECS needs two
    // arbitration cycles (VA-local, VA-global, XT) due to its port count.
    switch (kind) {
      case TopologyKind::MeshX1:
      case TopologyKind::MeshX2:
      case TopologyKind::MeshX4:
      case TopologyKind::Dps: return 2;
      // High-radix switches need the extra arbitration stage, like MECS.
      case TopologyKind::Mecs:
      case TopologyKind::FlatButterfly: return 3;
    }
    return 2;
}

} // namespace taqos
