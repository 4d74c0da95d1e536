#include "topo/network.h"

#include <cstdlib>

#include "common/assert.h"
#include "noc/trace_sink.h"

namespace taqos {

Network::Network(QosMode mode, PvcParams pvc)
    : mode_(mode), pvc_(std::move(pvc)), traits_(makeQosPolicy(mode, pvc_))
{
    pvc_.adoptWeights();
}

Network::~Network() = default;

int
Network::ackDistance(NodeId src, NodeId dst) const
{
    return std::abs(dst - src);
}

int
Network::reservedIdx() const
{
    return traits_->usesReservedVc() ? 0 : -1;
}

bool
Network::unbounded() const
{
    return traits_->unboundedVcs();
}

Router *
Network::addRouter(NodeId node, QosMode mode)
{
    routers_.push_back(std::make_unique<Router>(node, mode, pvc_));
    return routers_.back().get();
}

InputPort *
Network::addTermPort(NodeId node, int vcs)
{
    auto term = std::make_unique<InputPort>();
    term->name = "term_in_" + std::to_string(node);
    term->node = node;
    term->kind = InputPort::Kind::Network;
    term->creditDelay = 1;
    term->reservedVc = -1;
    term->unboundedVcs = unbounded();
    term->vcs.resize(static_cast<std::size_t>(vcs));
    termPorts_.push_back(std::move(term));
    termOutIdx_.push_back(-1);
    return termPorts_.back().get();
}

InputPort *
Network::makeNetInput(Router *r, std::string name, NodeId node, int vcs,
                      int creditDelay, int pipeDelay, bool passThrough,
                      XbarGroup *group)
{
    auto port = std::make_unique<InputPort>();
    port->name = std::move(name);
    port->node = node;
    port->kind = InputPort::Kind::Network;
    port->pipelineDelay = pipeDelay;
    port->creditDelay = creditDelay;
    port->reservedVc = reservedIdx();
    port->unboundedVcs = unbounded();
    port->usesCarriedPrio = passThrough;
    port->group = group;
    port->vcs.resize(static_cast<std::size_t>(vcs));
    return r->addInputPort(std::move(port));
}

int
Network::nextTableIdx(Router *r)
{
    int next = 0;
    for (const auto &out : r->outputs())
        next = std::max(next, out->tableIdx + 1);
    return next;
}

void
Network::addTerminalOutput(NodeId n)
{
    Router *r = router(n);
    auto out = std::make_unique<OutputPort>();
    out->name = "term_out_" + std::to_string(n);
    out->node = n;
    out->tableIdx = nextTableIdx(r);
    out->drops.push_back(OutputPort::Drop{termPort(n), /*wireDelay=*/0,
                                          /*meshHops=*/1.0});
    const int idx = static_cast<int>(r->outputs().size());
    r->addOutputPort(std::move(out));
    termOutIdx_[static_cast<std::size_t>(n)] = idx;
    r->setRoute(n, RouteEntry{idx, 1, 0});
}

void
Network::finalizeRouters()
{
    for (auto &r : routers_)
        r->finalize();

    // Wire the activity tracking. Port owners were set at addInput/
    // OutputPort time; here every VC learns its port (occupancy counts),
    // every injector queue learns its injection port (enqueue arming),
    // and every router joins the worklist — conservatively armed, so the
    // engine's first sweep observes real state before skipping anything.
    for (auto &r : routers_) {
        for (const auto &in : r->inputs()) {
            in->attachVcs();
            for (InjectorQueue *inj : in->injectors)
                inj->port = in.get();
        }
        r->setWorklist(&worklist_);
    }
    for (auto &term : termPorts_)
        term->attachVcs();
    for (InputPort *port : auxPorts_)
        port->attachVcs();
    for (int k = 0; k < numEjectionPorts(); ++k)
        ejectionPort(k)->setEjectionList(&ejection_, k);

    packHotState();
}

void
Network::packHotState()
{
    if (hotLayout() != HotLayout::Arena || hotPacked_)
        return;
    hotPacked_ = true;

    // Router records first: node id indexes straight into the array.
    auto *rhot = arena_.allocate<RouterHot>(routers_.size());
    for (std::size_t i = 0; i < routers_.size(); ++i)
        routers_[i]->bindHot(&rhot[i]);

    // Buffers in the engine's traversal order: router inputs in node
    // order, then terminals, then aux handoff buffers.
    std::vector<InputPort *> ports;
    for (auto &r : routers_)
        for (const auto &in : r->inputs())
            ports.push_back(in.get());
    for (auto &term : termPorts_)
        ports.push_back(term.get());
    for (InputPort *port : auxPorts_)
        ports.push_back(port);

    auto *phot = arena_.allocate<PortHot>(ports.size());
    for (std::size_t i = 0; i < ports.size(); ++i)
        ports[i]->bindHot(&phot[i]);
    for (InputPort *port : ports)
        port->vcs.rebind(&arena_);
    for (auto &r : routers_)
        r->bindSlotArena(&arena_);
}

void
Network::invalidateArbitration()
{
    for (auto &r : routers_)
        r->markArbDirty();
}

void
Network::reprogramFlowWeights(std::vector<std::uint32_t> weights)
{
    TAQOS_ASSERT(weights.empty() ||
                     static_cast<int>(weights.size()) == pvc_.numFlows,
                 "flow-register reprogram wants %d weights, got %zu",
                 pvc_.numFlows, weights.size());
    pvc_.weights = std::move(weights);
    pvc_.adoptWeights();
    // Flow tables compute priorities from counts x weights on the fly,
    // so the rewrite is visible immediately; only the routers' cached
    // candidate orderings need rescanning.
    invalidateArbitration();
}

void
Network::setTraceSink(TraceSink *sink)
{
    for (auto &r : routers_)
        r->setTraceSink(sink);
    for (auto &term : termPorts_) {
        if (sink != nullptr)
            sink->registerPort(*term, /*terminal=*/true);
        term->trace = sink;
    }
    for (InputPort *port : auxPorts_) {
        if (sink != nullptr)
            sink->registerPort(*port, /*terminal=*/false);
        port->trace = sink;
    }
}

} // namespace taqos
