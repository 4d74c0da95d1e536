/// \file fabric.h
/// Kilo-node whole-chip and multi-chip fabrics, declared by a FabricSpec
/// and finalized into a Network by FabricNetwork::build.
///
/// A fabric generalizes ChipNetwork from "one shared column + its rows"
/// to the full consolidated-server machine:
///   - every shared column of every chip is an active QOS block, built by
///     the same ColumnWiring machinery as the standalone column;
///   - each compute node belongs to the catchment of its nearest shared
///     column and reaches it over a 1-D NoQos row mesh ending in a
///     handoff buffer (the ChipNetwork pattern, replicated per block);
///   - chips are joined by inter-chip links (point-to-point or a ring of
///     chip-to-chip channels). A packet for a remote column rides its
///     local row mesh to the boundary handoff, crosses the link fabric,
///     and re-enters through the destination block's per-flow entrance
///     queue — the row-to-column handoff pattern applied at chip scale.
///
/// Node-id space (ascending, chip-major): chip c occupies
/// [c*nodesPerChip, (c+1)*nodesPerChip); within a chip the block (column)
/// nodes come first — block j's node for grid row y is
/// chipBase + j*H + y — followed by the compute nodes in row-major order.
/// A one-chip, one-column fabric therefore reproduces ChipNetwork's id
/// space exactly, and FabricSim pins cycle-identity against ChipSim.
///
/// Flow-id space (chip-major, block-major): block g's flows are
/// [g*flowsPerBlock, (g+1)*flowsPerBlock), laid out per column row as
///   slot 0                       the block's own terminal flow,
///   slots 1..catchment           one per catchment compute node
///                                (ascending grid x; trailing slots of
///                                smaller catchments stay inactive),
///   slots after the catchment    one per *remote* chip: slot r maps to
///                                source chip (c + 1 + r) % chips.
/// Remote flows keep their destination-block flow id for the whole
/// journey, so the destination column's flow registers (weights, quotas,
/// windows) govern them exactly like local sources.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chip/geometry.h"
#include "topo/column_network.h"

namespace taqos {

/// How chips are linked (Sec. 1's consolidated server spans boards).
enum class LinkTopology {
    PointToPoint, ///< dedicated channel per ordered chip pair
    Ring,         ///< unidirectional ring; packets hop chip to chip
};

const char *linkTopologyName(LinkTopology kind);
std::optional<LinkTopology> parseLinkTopology(const std::string &name);

/// Catchments of one chip's local blocks: for each shared column, the
/// ascending grid xs of the compute nodes whose nearest shared column it
/// is. Pure geometry — usable before a FabricNetwork exists (e.g. to
/// program flow registers for a spec under construction).
std::vector<std::vector<int>> fabricCatchments(const ChipConfig &chip);

/// Declarative description of a multi-chip fabric: chips x geometry x
/// inter-chip links x per-column QoS policy. Finalized by
/// FabricNetwork::build into a ready-to-simulate Network.
struct FabricSpec {
    int chips = 1;
    ChipConfig chip;

    /// Template for every QOS block: topology, VC provisioning, QoS
    /// parameters. `numNodes` is forced to the grid height and
    /// `injectorsPerNode` to the fabric's slot count; when
    /// `pvc.weights` is non-empty it must be sized to the TOTAL flow
    /// count (FabricNetwork::totalFlows).
    ColumnConfig column;

    /// Per-column QoS policy override, cycled over the global block
    /// index; empty = every block runs `column.mode`. Entries must be
    /// `column.mode` itself or a router-local policy (no-qos, per-flow,
    /// age, wrr) — Pvc/Gsf blocks need the engine-global quota/gate
    /// machinery and so must match the global mode.
    std::vector<QosMode> columnModes;

    /// VC buffers per row-mesh input and per handoff buffer.
    int rowVcs = 4;

    LinkTopology links = LinkTopology::PointToPoint;
    /// Inter-chip wire delay, cycles per link traversal.
    int linkDelay = 8;
    /// Link serialization width, flits accepted per cycle.
    int linkWidthFlits = 4;

    /// Scale the QoS frame length by the number of blocks so per-flow
    /// frame quotas stay comparable to the single-column configuration
    /// as the fabric grows.
    bool scaleFrameLen = true;

    int blocksPerChip() const
    {
        return static_cast<int>(chip.sharedColumns.size());
    }
    int blocks() const { return chips * blocksPerChip(); }

    /// Diagnose a spec FabricNetwork::build cannot realize: empty when
    /// the shape is valid, else one line naming the offending field
    /// ("bad fabric: ..."). Reads only the shape fields (chips, chip
    /// geometry, shared columns, row VCs, links), never asserts.
    std::string validate() const;
};

class FabricNetwork : public Network {
  public:
    static std::unique_ptr<FabricNetwork> build(FabricSpec spec);

    const FabricSpec &spec() const { return spec_; }

    // --- geometry ---
    int chips() const { return spec_.chips; }
    int blocksPerChip() const { return spec_.blocksPerChip(); }
    int blocks() const { return spec_.blocks(); }
    int gridHeight() const { return spec_.chip.nodesY(); }
    int nodesPerChip() const { return spec_.chip.numNodes(); }
    int computePerRow() const
    {
        return spec_.chip.nodesX() - blocksPerChip();
    }
    /// Injector slots per block node: terminal + catchment + remote.
    int slotsPerNode() const { return slotsPerNode_; }
    int remoteSlots() const { return spec_.chips > 1 ? spec_.chips - 1 : 0; }
    int flowsPerBlock() const { return gridHeight() * slotsPerNode_; }
    int totalFlows() const { return blocks() * flowsPerBlock(); }

    /// Catchment of local block `j`: the grid xs of the compute nodes
    /// whose nearest shared column is column `j` (ascending; identical
    /// on every chip).
    const std::vector<int> &catchment(int j) const
    {
        return catchments_[static_cast<std::size_t>(j)];
    }
    /// Local block index whose catchment contains compute column `x`.
    int blockOfX(int x) const;

    /// QoS mode of global block `g` (columnModes cycled).
    QosMode blockMode(int g) const;
    /// The per-block column configuration global block `g` was wired
    /// with (mode and crossbar grouping differ per block).
    const ColumnConfig &blockCfg(int g) const
    {
        return blockCfgs_[static_cast<std::size_t>(g)];
    }

    // --- id mapping ---
    int chipOfNode(NodeId n) const { return n / nodesPerChip(); }
    bool isBlockNode(NodeId n) const
    {
        return n % nodesPerChip() < blocksPerChip() * gridHeight();
    }
    NodeId blockBase(int g) const
    {
        const int B = blocksPerChip();
        return (g / B) * nodesPerChip() + (g % B) * gridHeight();
    }
    NodeId blockNodeId(int chip, int j, int y) const
    {
        return blockBase(chip * blocksPerChip() + j) + y;
    }
    /// Global block index of a block node (asserts `n` is one).
    int blockOfNode(NodeId n) const;
    NodeId computeNodeId(int chip, int x, int y) const;
    /// Grid x of the compute node with row rank `r` (inverse of the
    /// row-major compute layout).
    int xOfRank(int r) const { return computeXs_[static_cast<std::size_t>(r)]; }

    int blockOfFlow(FlowId f) const { return f / flowsPerBlock(); }
    /// (row, slot) of flow `f` within its block.
    int rowOfFlow(FlowId f) const
    {
        return f % flowsPerBlock() / slotsPerNode_;
    }
    int slotOfFlow(FlowId f) const { return f % slotsPerNode_; }
    /// Source chip of remote slot `k` (> catchment slots) at a block on
    /// chip `c`.
    int remoteSourceChip(int c, int k) const
    {
        return (c + 1 + (k - 1 - maxCatchment_)) % spec_.chips;
    }
    /// True when slot `k` of local block `j` carries traffic (terminal,
    /// a real catchment entry, or a remote slot).
    bool slotUsable(int j, int k) const;

    /// Origin queue of flow `f`: the owning compute node's aggregate
    /// source queue for catchment/remote flows, the block entrance queue
    /// itself for terminal flows.
    InjectorQueue &sourceQueue(FlowId f);

    /// All compute-node origin queues, indexed by flow (terminal and
    /// inactive-slot entries unused).
    std::vector<InjectorQueue> &rowQueues() { return rowQueues_; }

  private:
    explicit FabricNetwork(FabricSpec spec);

    friend void buildFabric(FabricNetwork &net);

    FabricSpec spec_;
    int slotsPerNode_ = 0;
    int maxCatchment_ = 0;
    std::vector<std::vector<int>> catchments_; ///< per local block
    std::vector<int> computeXs_;               ///< non-shared xs, ascending
    std::vector<int> blockOfX_;                ///< local block per rank
    std::vector<ColumnConfig> blockCfgs_;      ///< per global block
    std::vector<InjectorQueue> rowQueues_;     ///< indexed by global flow
    /// Handoff buffers at every block boundary (also registered as the
    /// network's auxPorts, in creation order).
    std::vector<std::unique_ptr<InputPort>> handoff_;
};

} // namespace taqos
