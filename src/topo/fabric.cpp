/// \file fabric.cpp
/// FabricSpec finalization: geometry, per-block column wiring (via the
/// shared ColumnWiring machinery), the per-catchment row meshes with
/// their boundary handoffs, and the id-space bookkeeping. The inter-chip
/// links themselves are cycle behavior and live in sim/fabric_sim.cpp.
#include "topo/fabric.h"

#include <algorithm>
#include <string>

#include "common/assert.h"
#include "common/strings.h"
#include "qos/policy.h"

namespace taqos {

const char *
linkTopologyName(LinkTopology kind)
{
    switch (kind) {
      case LinkTopology::PointToPoint: return "p2p";
      case LinkTopology::Ring: return "ring";
    }
    TAQOS_UNREACHABLE("bad link topology");
}

std::optional<LinkTopology>
parseLinkTopology(const std::string &name)
{
    if (name == "p2p" || name == "point-to-point" || name == "ptp")
        return LinkTopology::PointToPoint;
    if (name == "ring")
        return LinkTopology::Ring;
    return std::nullopt;
}

std::vector<std::vector<int>>
fabricCatchments(const ChipConfig &chip)
{
    std::vector<std::vector<int>> cats(chip.sharedColumns.size());
    for (int x = 0; x < chip.nodesX(); ++x) {
        if (chip.isSharedColumn(x))
            continue;
        for (std::size_t j = 0; j < chip.sharedColumns.size(); ++j) {
            if (chip.nearestSharedColumn(x) == chip.sharedColumns[j])
                cats[j].push_back(x);
        }
    }
    return cats;
}

namespace {

/// Slot count per block node for `spec` (terminal + largest catchment +
/// one remote slot per other chip), recomputed independently of the
/// network so the Network base class can be constructed first.
int
fabricSlots(const FabricSpec &spec)
{
    int maxCatchment = 0;
    for (const auto &cat : fabricCatchments(spec.chip))
        maxCatchment = std::max(maxCatchment, static_cast<int>(cat.size()));
    return 1 + maxCatchment + (spec.chips > 1 ? spec.chips - 1 : 0);
}

/// The fabric-global QoS parameters: total flow count, and the frame
/// scaled to the block count so per-flow quotas keep the single-column
/// magnitude.
PvcParams
fabricPvc(const FabricSpec &spec)
{
    PvcParams pvc = spec.column.pvc;
    pvc.numFlows =
        spec.blocks() * spec.chip.nodesY() * fabricSlots(spec);
    if (spec.scaleFrameLen && spec.blocks() > 1) {
        pvc.frameLen *= static_cast<Cycle>(spec.blocks());
        pvc.gsfFrameLen *= static_cast<Cycle>(spec.blocks());
    }
    return pvc;
}

} // namespace

FabricNetwork::FabricNetwork(FabricSpec spec)
    : Network(spec.column.mode, fabricPvc(spec)), spec_(std::move(spec))
{
    const ChipConfig &chip = spec_.chip;
    const int B = blocksPerChip();

    catchments_.resize(static_cast<std::size_t>(B));
    for (int x = 0; x < chip.nodesX(); ++x) {
        if (chip.isSharedColumn(x))
            continue;
        computeXs_.push_back(x);
        blockOfX_.push_back(-1);
        for (int j = 0; j < B; ++j) {
            if (chip.nearestSharedColumn(x) == chip.sharedColumns[
                    static_cast<std::size_t>(j)]) {
                catchments_[static_cast<std::size_t>(j)].push_back(x);
                blockOfX_.back() = j;
            }
        }
    }
    for (const auto &cat : catchments_) {
        maxCatchment_ =
            std::max(maxCatchment_, static_cast<int>(cat.size()));
    }
    slotsPerNode_ = 1 + maxCatchment_ + remoteSlots();

    // Per-block column configurations: the spec's template with the
    // block's own QoS mode and the crossbar grouping implied by its
    // catchment split (slots west of the column share one port).
    blockCfgs_.reserve(static_cast<std::size_t>(blocks()));
    for (int g = 0; g < blocks(); ++g) {
        const int j = g % B;
        ColumnConfig cfg = spec_.column;
        cfg.numNodes = gridHeight();
        cfg.injectorsPerNode = slotsPerNode_;
        cfg.mode = blockMode(g);
        cfg.pvc = pvcParams();
        int east = 0;
        for (int x : catchment(j)) {
            if (x < chip.sharedColumns[static_cast<std::size_t>(j)])
                ++east;
        }
        cfg.eastRowInjectors = east;
        blockCfgs_.push_back(std::move(cfg));
    }
}

int
FabricNetwork::blockOfX(int x) const
{
    for (std::size_t r = 0; r < computeXs_.size(); ++r) {
        if (computeXs_[r] == x)
            return blockOfX_[r];
    }
    TAQOS_ASSERT(false, "grid column %d is not a compute column", x);
    return -1;
}

QosMode
FabricNetwork::blockMode(int g) const
{
    if (spec_.columnModes.empty())
        return spec_.column.mode;
    return spec_.columnModes[static_cast<std::size_t>(g) %
                             spec_.columnModes.size()];
}

int
FabricNetwork::blockOfNode(NodeId n) const
{
    TAQOS_ASSERT(isBlockNode(n), "node %d is not a block node", n);
    return chipOfNode(n) * blocksPerChip() +
           n % nodesPerChip() / gridHeight();
}

NodeId
FabricNetwork::computeNodeId(int chip, int x, int y) const
{
    int rank = -1;
    for (std::size_t r = 0; r < computeXs_.size(); ++r) {
        if (computeXs_[r] == x)
            rank = static_cast<int>(r);
    }
    TAQOS_ASSERT(rank >= 0, "grid column %d is not a compute column", x);
    return chip * nodesPerChip() + blocksPerChip() * gridHeight() +
           y * computePerRow() + rank;
}

bool
FabricNetwork::slotUsable(int j, int k) const
{
    if (k == 0)
        return true;
    if (k <= maxCatchment_) {
        return k - 1 <
               static_cast<int>(catchment(j).size());
    }
    return k < slotsPerNode_;
}

InjectorQueue &
FabricNetwork::sourceQueue(FlowId f)
{
    if (slotOfFlow(f) == 0)
        return injector(f); // terminal flows originate at the block node
    InjectorQueue &q = rowQueues_[static_cast<std::size_t>(f)];
    TAQOS_ASSERT(q.flow == f, "flow %d has no origin queue", f);
    return q;
}

std::string
FabricSpec::validate() const
{
    const auto bad = [](const std::string &why) {
        return "bad fabric: " + why;
    };
    if (chips < 1)
        return bad(strFormat("chips=%d, want >= 1", chips));
    int side = 1;
    while (side * side < chip.concentration)
        ++side;
    if (chip.concentration < 1 || side * side != chip.concentration) {
        return bad(strFormat("concentration %d is not a square",
                             chip.concentration));
    }
    if (chip.tilesX < 1 || chip.tilesY < 1 || chip.tilesX % side != 0 ||
        chip.tilesY % side != 0) {
        return bad(strFormat("tiles %dx%d, want positive multiples of %d "
                             "(the concentration side)",
                             chip.tilesX, chip.tilesY, side));
    }
    const int nodesX = chip.tilesX / side;
    const int nodesY = chip.tilesY / side;
    if (nodesY < 2) {
        return bad(strFormat("%d node row(s), columns need >= 2 (tiles "
                             ">= %d)",
                             nodesY, 2 * side));
    }
    if (chip.sharedColumns.empty())
        return bad("no shared column, want >= 1");
    std::vector<int> cols = chip.sharedColumns;
    std::sort(cols.begin(), cols.end());
    for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] < 0 || cols[i] >= nodesX) {
            return bad(strFormat("shared column %d outside the %d-column "
                                 "grid (0..%d)",
                                 cols[i], nodesX, nodesX - 1));
        }
        if (i > 0 && cols[i] == cols[i - 1])
            return bad(strFormat("duplicate shared column %d", cols[i]));
    }
    if (nodesX <= static_cast<int>(cols.size())) {
        return bad(strFormat("%zu shared column(s) leave no compute "
                             "column in the %d-column grid",
                             cols.size(), nodesX));
    }
    if (rowVcs < 1)
        return bad(strFormat("rowVcs=%d, want >= 1", rowVcs));
    if (linkDelay < 1 || linkWidthFlits < 1) {
        return bad(strFormat("link delay %d / width %d, want both >= 1",
                             linkDelay, linkWidthFlits));
    }
    return "";
}

std::unique_ptr<FabricNetwork>
FabricNetwork::build(FabricSpec spec)
{
    const std::string bad = spec.validate();
    TAQOS_ASSERT(bad.empty(), "%s", bad.c_str());
    std::sort(spec.chip.sharedColumns.begin(),
              spec.chip.sharedColumns.end());
    spec.column.numNodes = spec.chip.nodesY();

    std::unique_ptr<FabricNetwork> net(new FabricNetwork(std::move(spec)));
    TAQOS_ASSERT(net->pvcParams().weights.empty() ||
                     static_cast<int>(net->pvcParams().weights.size()) ==
                         net->totalFlows(),
                 "fabric weights must cover all %d flows",
                 net->totalFlows());
    for (int g = 0; g < net->blocks(); ++g) {
        const QosMode m = net->blockMode(g);
        TAQOS_ASSERT(m == net->mode() ||
                         (m != QosMode::Pvc && m != QosMode::Gsf),
                     "block %d: Pvc/Gsf need the engine-global "
                     "quota/gate machinery and must match the fabric "
                     "mode",
                     g);
    }
    buildFabric(*net);
    net->finalizeRouters();
    return net;
}

void
buildFabric(FabricNetwork &net)
{
    const FabricSpec &spec = net.spec();
    const ChipConfig &chip = spec.chip;
    const int B = net.blocksPerChip();
    const int H = net.gridHeight();
    const int slots = net.slotsPerNode();
    const int fpb = net.flowsPerBlock();
    const int vcs = spec.rowVcs;
    /// Row routers are 2-stage (VA, XT) like the mesh/DPS column routers.
    const int depth = 2;

    // Pre-size the flow-indexed stores before any block takes pointers
    // into them (ports keep InjectorQueue pointers; growth would dangle).
    net.injectors().resize(static_cast<std::size_t>(net.totalFlows()));
    net.rowQueues_.resize(static_cast<std::size_t>(net.totalFlows()));

    const auto wiring = [&](int c, int j) {
        const int g = c * B + j;
        const QosMode m = net.blockMode(g);
        // Router/port QoS flags follow the *block's* policy, not the
        // fabric's (a per-flow block grows VCs on demand even inside a
        // PVC fabric).
        const auto proto = makeQosPolicy(m, net.pvcParams());
        return ColumnWiring{net,
                            net.blockCfg(g),
                            net.blockBase(g),
                            g * fpb,
                            "c" + std::to_string(c) + "_b" +
                                std::to_string(j) + "_",
                            m,
                            proto->usesReservedVc() ? 0 : -1,
                            proto->unboundedVcs()};
    };

    for (int c = 0; c < spec.chips; ++c) {
        // Block routers and terminals first — ascending node order is a
        // substrate invariant (termPort(n) indexes per-node storage).
        for (int j = 0; j < B; ++j)
            wireColumnInjection(wiring(c, j));

        // Compute-node routers, their aggregate injector queues (the
        // node's catchment flow plus any remote flows it originates),
        // and empty terminal buffers for uniform per-node indexing.
        for (int y = 0; y < H; ++y) {
            for (int r = 0; r < net.computePerRow(); ++r) {
                const int x = net.xOfRank(r);
                const NodeId id = net.computeNodeId(c, x, y);
                TAQOS_ASSERT(id == net.numNodes(),
                             "compute node id mismatch");
                Router *router = net.addRouter(id, QosMode::NoQos);
                net.addTermPort(id, 1);

                auto port = std::make_unique<InputPort>();
                port->name = "c" + std::to_string(c) + "_row_inj_" +
                             std::to_string(x) + "_" + std::to_string(y);
                port->node = id;
                port->kind = InputPort::Kind::Injection;
                port->pipelineDelay = depth;
                port->group = router->addXbarGroup();

                const auto addOrigin = [&](FlowId f) {
                    InjectorQueue &q =
                        net.rowQueues_[static_cast<std::size_t>(f)];
                    q.flow = f;
                    q.node = id;
                    q.windowLimit = spec.column.pvc.windowLimit;
                    port->injectors.push_back(&q);
                };

                const int j = net.blockOfX(x);
                const auto &cat = net.catchment(j);
                const int idx = static_cast<int>(
                    std::find(cat.begin(), cat.end(), x) - cat.begin());
                addOrigin((c * B + j) * fpb + y * slots + 1 + idx);

                // The westernmost catchment node also originates this
                // (block, row)'s traffic toward every remote chip.
                if (idx == 0) {
                    for (int cd = 0; cd < spec.chips; ++cd) {
                        if (cd == c)
                            continue;
                        const int k = 1 + net.maxCatchment_ +
                                      (c - cd - 1 + spec.chips) %
                                          spec.chips;
                        addOrigin((cd * B + j) * fpb + y * slots + k);
                    }
                }
                router->addInputPort(std::move(port));
            }
        }

        for (int j = 0; j < B; ++j)
            wireColumnTopology(wiring(c, j));

        // Row meshes: each catchment side chains toward its block's
        // column-entry node, ending in a boundary handoff buffer
        // (buildChipRows generalized to one segment per block side).
        const auto makeRowInput = [&](Router *router,
                                      const std::string &name,
                                      NodeId node) {
            auto port = std::make_unique<InputPort>();
            port->name = name;
            port->node = node;
            port->kind = InputPort::Kind::Network;
            port->pipelineDelay = depth;
            port->creditDelay = 1;
            port->reservedVc = -1; // rows run without QOS machinery
            port->group = router->addXbarGroup();
            port->vcs.resize(static_cast<std::size_t>(vcs));
            return router->addInputPort(std::move(port));
        };
        const auto makeHandoff = [&](const std::string &name, int j,
                                     int y) {
            auto port = std::make_unique<InputPort>();
            port->name = name;
            port->node = net.blockNodeId(c, j, y);
            port->kind = InputPort::Kind::Network;
            port->creditDelay = 1;
            port->reservedVc = -1;
            port->vcs.resize(static_cast<std::size_t>(vcs));
            net.handoff_.push_back(std::move(port));
            net.auxPorts_.push_back(net.handoff_.back().get());
            return net.handoff_.back().get();
        };
        const auto addRowOutput = [&](int x, int y, int j,
                                      const char *dir, InputPort *down) {
            Router *router = net.router(net.computeNodeId(c, x, y));
            auto out = std::make_unique<OutputPort>();
            out->name = "c" + std::to_string(c) + "_row_out_" + dir +
                        "_" + std::to_string(x) + "_" + std::to_string(y);
            out->node = net.computeNodeId(c, x, y);
            out->tableIdx = Network::nextTableIdx(router);
            out->drops.push_back(OutputPort::Drop{down, /*wireDelay=*/1,
                                                  /*meshHops=*/1.0});
            const int idx = static_cast<int>(router->outputs().size());
            router->addOutputPort(std::move(out));
            // Everything in a catchment row heads for its block's
            // column-entry node.
            router->setRoute(net.blockNodeId(c, j, y), RouteEntry{idx, 1, 0});
        };

        for (int j = 0; j < B; ++j) {
            const int cx =
                chip.sharedColumns[static_cast<std::size_t>(j)];
            const auto &cat = net.catchment(j);
            std::vector<int> west, east;
            for (int x : cat)
                (x < cx ? west : east).push_back(x);

            for (int y = 0; y < H; ++y) {
                const std::string suffix =
                    "b" + std::to_string(j) + "_" + std::to_string(y);
                if (!west.empty()) {
                    std::vector<InputPort *> in(west.size(), nullptr);
                    for (std::size_t i = 1; i < west.size(); ++i) {
                        in[i] = makeRowInput(
                            net.router(net.computeNodeId(c, west[i], y)),
                            "c" + std::to_string(c) + "_row_in_e_" +
                                std::to_string(west[i]) + "_" +
                                std::to_string(y),
                            net.computeNodeId(c, west[i], y));
                    }
                    InputPort *hand = makeHandoff(
                        "c" + std::to_string(c) + "_handoff_w_" + suffix,
                        j, y);
                    for (std::size_t i = 0; i < west.size(); ++i) {
                        addRowOutput(west[i], y, j, "e",
                                     i + 1 == west.size() ? hand
                                                          : in[i + 1]);
                    }
                }
                if (!east.empty()) {
                    std::vector<InputPort *> in(east.size(), nullptr);
                    for (std::size_t i = 0; i + 1 < east.size(); ++i) {
                        in[i] = makeRowInput(
                            net.router(net.computeNodeId(c, east[i], y)),
                            "c" + std::to_string(c) + "_row_in_w_" +
                                std::to_string(east[i]) + "_" +
                                std::to_string(y),
                            net.computeNodeId(c, east[i], y));
                    }
                    InputPort *hand = makeHandoff(
                        "c" + std::to_string(c) + "_handoff_e_" + suffix,
                        j, y);
                    for (std::size_t i = east.size(); i-- > 0;) {
                        addRowOutput(east[i], y, j, "w",
                                     i == 0 ? hand : in[i - 1]);
                    }
                }
            }
        }
    }
}

} // namespace taqos
