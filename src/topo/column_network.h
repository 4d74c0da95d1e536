/// \file column_network.h
/// The QOS-protected shared-region column: 8 routers, their terminals
/// (memory controllers / accelerators), and 64 injectors, wired in one of
/// the five Table-1 topologies. A thin specialization of the
/// topology-agnostic Network substrate (topo/network.h).
///
/// The wiring itself is expressed against a ColumnWiring context so the
/// same topology builders serve two callers: ColumnNetwork (the identity
/// wiring — base 0, no prefix, the network's own mode) and FabricNetwork
/// (topo/fabric.h), which instantiates one block per shared column with
/// offset node/flow id bases and per-block QoS modes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "noc/ports.h"
#include "router/router.h"
#include "topo/network.h"
#include "topo/topology.h"

namespace taqos {

/// Context for wiring one column block into a (possibly larger) network.
/// Local node ids 0..cfg.numNodes-1 and local flow ids map into the
/// network's global id spaces through `base`/`flowBase`; port names get
/// `prefix` so multi-block traces stay readable. The identity instance
/// (base 0, empty prefix, the network's own mode/VC policy) produces a
/// network byte-identical to the classic single-column wiring.
struct ColumnWiring {
    Network &net;
    const ColumnConfig &cfg;
    NodeId base = 0;     ///< global id of this block's local node 0
    FlowId flowBase = 0; ///< global id of this block's local flow 0
    std::string prefix;  ///< port-name prefix ("" for the identity wiring)
    QosMode mode = QosMode::NoQos; ///< router mode of this block
    int reservedVc = -1;           ///< reserved-VC index for net inputs
    bool unboundedVcs = false;     ///< per-flow-queueing VC growth

    NodeId node(int i) const { return base + i; }
    FlowId flow(int i, int slot) const
    {
        return flowBase + cfg.flowOf(i, slot);
    }
    std::string name(const std::string &s) const { return prefix + s; }

    Router *router(int i) const { return net.router(node(i)); }
    Router *addRouter(int i) const { return net.addRouter(node(i), mode); }

    InputPort *addTermPort(int i, int vcs) const
    {
        InputPort *term = net.addTermPort(node(i), vcs);
        term->unboundedVcs = unboundedVcs;
        return term;
    }

    InputPort *makeNetInput(Router *r, const std::string &portName, int i,
                            int vcs, int creditDelay, int pipeDelay,
                            bool passThrough, XbarGroup *group) const
    {
        InputPort *port =
            net.makeNetInput(r, name(portName), node(i), vcs, creditDelay,
                             pipeDelay, passThrough, group);
        port->reservedVc = reservedVc;
        port->unboundedVcs = unboundedVcs;
        return port;
    }

    void addTerminalOutput(int i) const { net.addTerminalOutput(node(i)); }

    void setRoute(Router *r, int d, RouteEntry e) const
    {
        r->setRoute(node(d), e);
    }
};

/// Create the block's injector queues, routers, terminal ejection buffers
/// and (topology-independent) injection ports. Grows the network's
/// injector vector if needed — multi-block callers must pre-size it to
/// the total flow count before wiring any block, or stored queue
/// pointers would dangle.
void wireColumnInjection(const ColumnWiring &w);

/// The topology-specific channel/route wiring of one block.
void wireColumnTopology(const ColumnWiring &w);

/// wireColumnInjection + wireColumnTopology: one fully wired block.
void wireColumnBlock(const ColumnWiring &w);

class ColumnNetwork : public Network {
  public:
    /// Build a column in the configured topology. The returned network is
    /// ready to simulate (routes set, flow tables sized).
    static std::unique_ptr<ColumnNetwork> build(ColumnConfig cfg);

    const ColumnConfig &cfg() const { return cfg_; }

  private:
    explicit ColumnNetwork(ColumnConfig cfg);

    ColumnConfig cfg_;
};

/// Topology-specific wiring (implemented in build_*.cpp).
void buildMeshColumn(const ColumnWiring &w);
void buildMecsColumn(const ColumnWiring &w);
void buildDpsColumn(const ColumnWiring &w);
void buildFlatButterflyColumn(const ColumnWiring &w);

} // namespace taqos
