/// \file network.h
/// Topology-agnostic network substrate: the routers, injector queues and
/// terminal (ejection) buffers a simulated fabric is made of, plus the
/// builder helpers the topology wiring code shares.
///
/// A Network owns no cycle semantics — that is the NetSim engine
/// (sim/net_sim.h). Concrete fabrics subclass it: ColumnNetwork wires the
/// paper's QOS-protected shared column (topo/column_network.h), and
/// ChipNetwork wraps that column with the whole chip's unprotected row
/// meshes (topo/chip_network.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "noc/activity.h"
#include "noc/ports.h"
#include "qos/policy.h"
#include "qos/pvc.h"
#include "router/router.h"

namespace taqos {

class Network {
  public:
    virtual ~Network();
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /// QOS discipline of this network's protected routers.
    QosMode mode() const { return mode_; }
    const PvcParams &pvcParams() const { return pvc_; }

    /// Structural properties of the mode's policy (flow tables, reserved
    /// VCs, frames, source quotas) — a stateless prototype instance; the
    /// stateful per-router policies live inside the routers.
    const QosPolicy &policyTraits() const { return *traits_; }

    int numNodes() const { return static_cast<int>(routers_.size()); }
    int numFlows() const { return static_cast<int>(injectors_.size()); }

    Router *router(NodeId n)
    {
        return routers_[static_cast<std::size_t>(n)].get();
    }
    const Router *router(NodeId n) const
    {
        return routers_[static_cast<std::size_t>(n)].get();
    }

    /// Ejection buffer at node `n`'s terminal.
    InputPort *termPort(NodeId n)
    {
        return termPorts_[static_cast<std::size_t>(n)].get();
    }

    /// Output-port index of node `n`'s terminal (ejection) port, or -1
    /// when the node has no terminal output (e.g. a pure transit router).
    int termOutIdx(NodeId n) const
    {
        return termOutIdx_[static_cast<std::size_t>(n)];
    }

    /// Canonical per-flow source queue at the network's injection
    /// boundary: traffic enters here, NACKed packets return here, and the
    /// retransmission window is accounted here.
    InjectorQueue &injector(FlowId flow)
    {
        return injectors_[static_cast<std::size_t>(flow)];
    }

    std::vector<InjectorQueue> &injectors() { return injectors_; }

    /// ACK-network hop distance between two node ids (the modelled
    /// ACK/NACK return delay is proportional to it).
    virtual int ackDistance(NodeId src, NodeId dst) const;

    /// Buffers not owned by any router beyond the per-node terminals
    /// (e.g. the chip's row-to-column handoff buffers, registered by the
    /// topology builder). The engine includes them in frame flushes and
    /// invariant checks.
    const std::vector<InputPort *> &auxPorts() const { return auxPorts_; }

    /// Routers armed by activity events since the engine's last merge,
    /// plus their transfers' completion calendar (see noc/activity.h);
    /// the activity-driven NetSim consumes both once per cycle.
    ActivityWorklist &worklist() { return worklist_; }

    /// Terminal and aux buffers holding a packet, by ejection ordinal
    /// (see ejectionPort); the activity-driven NetSim polls only these.
    EjectionList &ejection() { return ejection_; }
    /// Ejection ordinal -> buffer: terminals by node id, then the aux
    /// ports in creation order.
    InputPort *ejectionPort(int ordinal)
    {
        return ordinal < numNodes()
            ? termPort(ordinal)
            : auxPorts_[static_cast<std::size_t>(ordinal - numNodes())];
    }
    int numEjectionPorts() const
    {
        return numNodes() + static_cast<int>(auxPorts_.size());
    }

    /// Invalidate every router's cached arbitration state (frame flushes,
    /// GSF window advances: policy state changed behind the routers'
    /// backs). Does not arm idle routers — a router with no work has
    /// nothing to rescan, and whatever gives it work later re-arms it.
    void invalidateArbitration();

    /// Rewrite the per-flow QOS weights in place — the memory-mapped
    /// flow-register reprogramming the hypervisor performs when tenants
    /// arrive or depart (Sec. 2.2). Every router references pvc_, so the
    /// new weights — and the weight sum cached with them — take effect
    /// immediately; cached arbitration state is invalidated. Callers
    /// should apply this at frame boundaries (ChurnDriver does), where
    /// in-flight priority state resets anyway. `weights` must be empty
    /// (all-ones) or sized numFlows.
    void reprogramFlowWeights(std::vector<std::uint32_t> weights);

    /// Attach (or detach, with nullptr) a flit-trace recorder to every
    /// router, terminal and aux port: registers each port with the sink
    /// and points the state-transition hooks at it. Usually reached via
    /// NetSim::attachTraceSink, which also feeds the engine-side events.
    void setTraceSink(TraceSink *sink);

    // --- builder interface (used by the topology wiring code and tests) --

    /// VC index reserved for rate-compliant packets (-1 when disabled).
    int reservedIdx() const;
    /// Per-flow-queueing reference: VCs grow on demand.
    bool unbounded() const;

    /// Create a router operating under this network's QOS mode.
    Router *addRouter(NodeId node) { return addRouter(node, mode_); }
    /// Create a router with an explicit mode (unprotected row routers).
    Router *addRouter(NodeId node, QosMode mode);

    /// Create the ejection buffer for node `node`. Routers and terminal
    /// ports must be created in the same node order so the per-node
    /// indexing stays aligned.
    InputPort *addTermPort(NodeId node, int vcs);

    /// Create a network input port on `r` (column channel or DPS subnet).
    InputPort *makeNetInput(Router *r, std::string name, NodeId node,
                            int vcs, int creditDelay, int pipeDelay,
                            bool passThrough, XbarGroup *group);

    /// Create the terminal output port on node `n` (drop into the ejection
    /// buffer) and record its index; also sets the self-route.
    void addTerminalOutput(NodeId n);

    /// Call Router::finalize on every router, then wire the activity
    /// tracking: VC-to-port back-pointers (incremental occupancy),
    /// injector-to-port back-pointers (enqueue arming), the shared
    /// worklist every router initially arms onto, and the ejection list
    /// the terminal and aux buffers arm onto. Builders must call this
    /// once, after the full port structure exists. Under the default
    /// HotLayout::Arena it then packs the per-router hot state (see
    /// packHotState).
    void finalizeRouters();

    /// Bytes of hot state packed into the network-owned arena (0 under
    /// HotLayout::ObjectGraph, or before finalizeRouters).
    std::size_t hotArenaBytes() const { return arena_.bytesAllocated(); }

    /// Next unused flow-table id on `r` (builders group replicated
    /// channels under one id; everything else gets its own).
    static int nextTableIdx(Router *r);

  protected:
    Network(QosMode mode, PvcParams pvc);

    QosMode mode_;
    /// Stable storage for the QOS parameters every router references.
    PvcParams pvc_;
    /// Prototype policy instance backing policyTraits().
    std::unique_ptr<QosPolicy> traits_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<InputPort>> termPorts_;
    std::vector<InjectorQueue> injectors_;
    std::vector<int> termOutIdx_;
    std::vector<InputPort *> auxPorts_;
    ActivityWorklist worklist_;
    EjectionList ejection_;

  private:
    /// Move the cycle-hot state out of the object graph into contiguous
    /// network-owned storage, in node order: one RouterHot cache line per
    /// router, then one PortHot record per buffer (router inputs, then
    /// terminals, then aux), then every port's VC array and every
    /// router's cached candidate-slot lists. Indices are preserved —
    /// only storage moves — so VcRef/slot bookkeeping is untouched.
    /// No-op under HotLayout::ObjectGraph (the layout-ablation baseline).
    void packHotState();

    /// Backing store for the packed hot state; owned here so its lifetime
    /// matches the routers that point into it.
    BumpArena arena_;
    bool hotPacked_ = false;
};

} // namespace taqos
