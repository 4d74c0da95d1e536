#include "sim/net_sim.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "noc/trace_sink.h"
#include "router/router.h"
#include "sim/shard_plan.h"
#include "sim/shard_pool.h"

namespace taqos {

NetSim::NetSim(std::unique_ptr<Network> net)
    : net_(std::move(net)), metrics_(net_->numFlows())
{
    if (net_->policyTraits().usesSourceQuota())
        quota_ = std::make_unique<QuotaTracker>(net_->pvcParams());
    gate_ = makeSourceGate(net_->mode(), net_->pvcParams());
    net_->worklist().completions.setEnabled(engineCfg_.activityDriven);
}

NetSim::~NetSim() = default;

void
NetSim::setTrafficSource(std::unique_ptr<TrafficSource> source)
{
    source_ = std::move(source);
}

void
NetSim::setMeasureWindow(Cycle start, Cycle end)
{
    metrics_.measureStart = start;
    metrics_.measureEnd = end;
}

void
NetSim::configure(const EngineConfig &cfg)
{
    // The dispatch threshold only gates the pool-vs-inline heuristic
    // (never results), so it stays tunable mid-run; everything else must
    // precede the first step.
    if (now_ != 0) {
        TAQOS_ASSERT(cfg.activityDriven == engineCfg_.activityDriven &&
                         cfg.shards == engineCfg_.shards,
                     "engine selection must precede the first step");
        engineCfg_.shardMinActive = cfg.shardMinActive;
        return;
    }
    TAQOS_ASSERT(cfg.shards >= 1, "need at least one shard");
    engineCfg_ = cfg;
    engineCfg_.shards =
        std::min(cfg.shards, std::max(1, net_->numNodes()));
    regions_.clear();
    shardPool_.reset();
    net_->worklist().pending.clear();
    // Only the activity-driven engine drains completion calendars; the
    // always-tick reference sweeps every output instead.
    net_->worklist().completions.setEnabled(engineCfg_.activityDriven);

    if (engineCfg_.shards <= 1) {
        // Back to the shared worklist (tests flip this both ways). Armed
        // routers re-enter pending; their flags are authoritative.
        for (NodeId n = 0; n < net_->numNodes(); ++n) {
            Router *r = net_->router(n);
            r->rebindWorklist(&net_->worklist());
            if (r->inWorklist())
                net_->worklist().pending.push_back(n);
        }
        return;
    }

    const auto ranges =
        planShardRanges(shardWeights(*net_), engineCfg_.shards);
    regions_.resize(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        Region &reg = regions_[i];
        reg.begin = ranges[i].first;
        reg.end = ranges[i].second;
        reg.wl.completions.setEnabled(engineCfg_.activityDriven);
        for (NodeId n = reg.begin; n < reg.end; ++n) {
            Router *r = net_->router(n);
            r->rebindWorklist(&reg.wl);
            if (r->inWorklist())
                reg.wl.pending.push_back(n);
        }
    }
    shardPool_ =
        std::make_unique<ShardPool>(static_cast<int>(regions_.size()) - 1);
}

void
NetSim::attachTraceSink(TraceSink *sink)
{
    trace_ = sink;
    net_->setTraceSink(sink);
}

void
NetSim::sweepIdle(std::vector<NodeId> &active)
{
    std::erase_if(active, [this](NodeId n) {
        Router *r = net_->router(n);
        if (r->hasWork())
            return false;
        r->leaveWorklist();
        return true;
    });
}

void
NetSim::completeTransfers(CompletionCalendar &cal)
{
    cal.drain(now_, [this](OutputPort &out) { out.tickCompletion(now_); });
}

void
NetSim::processFrameBoundary()
{
    // Source-gated policies (GSF) advance their global frame window on
    // their own schedule (drain-driven early reclamation). A window
    // advance resets injection budgets — gated source packets may become
    // admissible — so cached arbitration state network-wide is stale.
    if (gate_ != nullptr) {
        const std::uint64_t epoch = gate_->epoch();
        gate_->rollover(now_);
        if (gate_->epoch() != epoch &&
            net_->policyTraits().invalidatesOnFrameBoundary()) {
            net_->invalidateArbitration();
        }
    }

    const Cycle frame = net_->policyTraits().frameLen();
    if (frame == 0 || now_ == 0 || now_ % frame != 0)
        return;
    for (NodeId n = 0; n < net_->numNodes(); ++n)
        net_->router(n)->frameFlush();
    if (quota_ != nullptr)
        quota_->flush();

    // The flush clears bandwidth history everywhere — including the
    // priority copies carried by in-flight packets (priority reuse).
    // Stale pre-flush priorities would otherwise starve DPS pass-through
    // traffic against freshly-zeroed local counters for much of a frame.
    const auto clearPort = [](InputPort *port) {
        for (auto &vc : port->vcs) {
            if (NetPacket *pkt = vc.packet())
                pkt->carriedPrio = 0;
        }
    };
    for (NodeId n = 0; n < net_->numNodes(); ++n) {
        for (const auto &in : net_->router(n)->inputs())
            clearPort(in.get());
        clearPort(net_->termPort(n));
    }
    for (InputPort *port : net_->auxPorts())
        clearPort(port);

    // The flush rewrote the state cached winner rankings were computed
    // from (flow tables, quota counters, carried priorities).
    if (net_->policyTraits().invalidatesOnFrameBoundary())
        net_->invalidateArbitration();
}

void
NetSim::processAcks()
{
    AckEvent ev;
    while (ack_.popDue(now_, ev)) {
        NetPacket *pkt = ev.pkt;
        InjectorQueue &inj = net_->injector(pkt->flow);
        if (ev.isNack) {
            // Retransmit: back to the head of the source queue; the packet
            // keeps its window slot and its original generation time.
            TAQOS_ASSERT(pkt->state == PacketState::Dropped,
                         "NACK for packet not dropped");
            pkt->state = PacketState::Queued;
            pkt->queuedCycle = now_;
            if (trace_ != nullptr)
                trace_->requeue(now_, *pkt);
            inj.enqueueFront(pkt);
        } else {
            TAQOS_ASSERT(pkt->state == PacketState::Delivered,
                         "ACK for undelivered packet");
            TAQOS_ASSERT(pkt->inWindow, "ACK for packet outside window");
            pkt->inWindow = false;
            --inj.outstanding;
            TAQOS_ASSERT(inj.outstanding >= 0, "window underflow");
            // The retired slot may unblock a head packet stalled on the
            // retransmission window.
            inj.noteWindowChange();
            if (trace_ != nullptr)
                trace_->retire(now_, *pkt);
            pool_.release(pkt);
        }
    }
}

void
NetSim::deliver(NetPacket *pkt, InputPort *port, int vcIdx)
{
    pkt->state = PacketState::Delivered;
    pkt->deliverCycle = now_;
    if (trace_ != nullptr)
        trace_->deliver(now_, *port, vcIdx, *pkt);
    pkt->removeLoc(port, vcIdx);
    port->vcs[static_cast<std::size_t>(vcIdx)].free(
        now_ + static_cast<Cycle>(port->creditDelay));

    ++metrics_.deliveredPackets;
    metrics_.deliveredFlits += static_cast<std::uint64_t>(pkt->sizeFlits);
    metrics_.usefulHops += pkt->hopsThisAttempt;
    if (pkt->measured) {
        const double lat = static_cast<double>(now_ - pkt->genCycle);
        metrics_.latency.push(lat);
        metrics_.latencyHist.add(lat);
    }
    if (metrics_.inWindow(now_)) {
        metrics_.flowFlits[static_cast<std::size_t>(pkt->flow)] +=
            static_cast<std::uint64_t>(pkt->sizeFlits);
    }

    ack_.send(now_, net_->ackDistance(pkt->src, pkt->dst), pkt,
              /*isNack=*/false);
    if (gate_ != nullptr)
        gate_->onDeliver(*pkt, now_);
}

void
NetSim::handoff(NetPacket *, InputPort *port, int)
{
    TAQOS_ASSERT(false, "aux buffer %s has no handoff", port->name.c_str());
}

void
NetSim::ejectFrom(InputPort *port, bool aux)
{
    for (int v = 0; v < static_cast<int>(port->vcs.size()); ++v) {
        VirtualChannel &vc = port->vcs[static_cast<std::size_t>(v)];
        if (vc.state() != VirtualChannel::State::Reserved ||
            now_ < vc.tailArrival()) {
            continue;
        }
        if (aux)
            handoff(vc.packet(), port, v);
        else
            deliver(vc.packet(), port, v);
    }
}

void
NetSim::tickTerminals()
{
    const int terms = net_->numNodes();
    if (!engineCfg_.activityDriven) {
        for (int k = 0; k < net_->numEjectionPorts(); ++k)
            ejectFrom(net_->ejectionPort(k), k >= terms);
        return;
    }

    // Poll only the buffers holding a packet, in ordinal order (the
    // always-tick sweep's order). Ejection touches no other buffer's
    // VCs, so nothing arms during the walk.
    EjectionList &ej = net_->ejection();
    mergeArms(ej.active, ej.pending);
    for (int k : ej.active)
        ejectFrom(net_->ejectionPort(k), k >= terms);
    std::erase_if(ej.active, [this](int k) {
        InputPort *port = net_->ejectionPort(k);
        if (port->occupied() > 0)
            return false;
        port->leaveEjectionList();
        return true;
    });
}

void
NetSim::regionPhase(Region &reg, TickContext &scanCtx)
{
    // The sweep is the serial engine's end-of-cycle sweep, delayed to the
    // start of the next: a router that drained last cycle but was armed
    // again by this cycle's prelude simply stays (the prelude's arm was a
    // no-op on its still-set flag), which is exactly the set the serial
    // order produces.
    sweepIdle(reg.active);
    mergeArms(reg.active, reg.wl.pending);
    completeTransfers(reg.wl.completions);
    for (NodeId n : reg.active)
        net_->router(n)->tickScan(scanCtx);
}

void
NetSim::stepSharded()
{
    if (trace_ != nullptr)
        trace_->noteCycle(now_);
    processFrameBoundary();
    processAcks();
    if (source_ != nullptr)
        source_->tick(now_, pool_, net_->injectors(), metrics_);

    TickContext ctx;
    ctx.now = now_;
    ctx.quota = quota_.get();
    ctx.ack = &ack_;
    ctx.metrics = &metrics_;
    ctx.gate = gate_.get();
    ctx.forceScan = !engineCfg_.activityDriven;

    if (engineCfg_.activityDriven) {
        TickContext scanCtx = ctx;
        scanCtx.speculative = true;

        // Dispatch only when there is enough live work to amortize the
        // fork-join; the threshold reads pre-sweep state, so the choice
        // is a pure function of simulation state (deterministic).
        std::size_t live = 0;
        for (const Region &reg : regions_)
            live += reg.active.size() + reg.wl.pending.size();
        const bool par =
            live >= regions_.size() *
                        static_cast<std::size_t>(engineCfg_.shardMinActive);

        if (trace_ != nullptr) {
            // Completions emit trace events; keep every mutating walk
            // serial in node order so the recorded stream is
            // byte-identical to the serial engines'. The scans are pure
            // and may still fan out.
            for (Region &reg : regions_) {
                sweepIdle(reg.active);
                mergeArms(reg.active, reg.wl.pending);
                completeTransfers(reg.wl.completions);
            }
            if (par) {
                shardPool_->dispatch(
                    static_cast<int>(regions_.size()), [&](int i) {
                        Region &reg =
                            regions_[static_cast<std::size_t>(i)];
                        for (NodeId n : reg.active)
                            net_->router(n)->tickScan(scanCtx);
                    });
            } else {
                for (Region &reg : regions_)
                    for (NodeId n : reg.active)
                        net_->router(n)->tickScan(scanCtx);
            }
        } else if (par) {
            shardPool_->dispatch(
                static_cast<int>(regions_.size()), [&](int i) {
                    regionPhase(regions_[static_cast<std::size_t>(i)],
                                scanCtx);
                });
        } else {
            for (Region &reg : regions_)
                regionPhase(reg, scanCtx);
        }

        // Serial grant phase: regions are contiguous and ascending, so
        // this is the serial engine's global node order. All cross-router
        // mutation (VC reservation, preemption kills, gate charges, arms)
        // happens here; a grant that invalidates a later router's
        // speculative scan re-dirties it through the usual hooks, and
        // tickArbitrate rescans exactly those outputs.
        for (Region &reg : regions_)
            for (NodeId n : reg.active)
                net_->router(n)->tickArbitrate(ctx);
    } else {
        // Always-tick reference, sharded: completions are router-local
        // and run over the full node ranges in parallel; the arbitration
        // sweep stays serial (it is where all ordering lives).
        shardPool_->dispatch(
            static_cast<int>(regions_.size()), [&](int i) {
                const Region &reg =
                    regions_[static_cast<std::size_t>(i)];
                for (NodeId n = reg.begin; n < reg.end; ++n)
                    net_->router(n)->tickCompletions(now_);
            });
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->tickArbitrate(ctx);
    }

    tickTerminals();
    ++now_;
}

void
NetSim::step()
{
    if (!regions_.empty()) {
        stepSharded();
        return;
    }
    if (trace_ != nullptr)
        trace_->noteCycle(now_);
    processFrameBoundary();
    processAcks();
    if (source_ != nullptr)
        source_->tick(now_, pool_, net_->injectors(), metrics_);

    TickContext ctx;
    ctx.now = now_;
    ctx.quota = quota_.get();
    ctx.ack = &ack_;
    ctx.metrics = &metrics_;
    ctx.gate = gate_.get();
    ctx.forceScan = !engineCfg_.activityDriven;

    if (engineCfg_.activityDriven) {
        // Tick only routers with work. Arms raised by the phases above
        // (NACK requeues, fresh traffic) are folded in first; arms raised
        // *during* the router phases (a grant reserving a downstream VC,
        // a handoff enqueue in the terminal phase) target state that is
        // not actionable until next cycle — a previously-idle router's
        // tick this cycle would be a no-op — so they join then, exactly
        // matching the always-tick schedule.
        mergeArms(active_, net_->worklist().pending);
        completeTransfers(net_->worklist().completions);
        for (NodeId n : active_)
            net_->router(n)->tickArbitrate(ctx);
    } else {
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->tickCompletions(now_);
        for (NodeId n = 0; n < net_->numNodes(); ++n)
            net_->router(n)->tickArbitrate(ctx);
    }

    tickTerminals();
    if (engineCfg_.activityDriven)
        sweepIdle(active_);
    ++now_;
}

void
NetSim::rebuildSchedules()
{
    // Every restored transfer goes back on its router's calendar (the
    // worklists are already rebound), and every buffer holding a packet
    // back on the ejection list — the schedules the uninterrupted run
    // holds, minus stale entries, which complete nothing anyway.
    net_->worklist().completions.reset(now_);
    for (Region &reg : regions_)
        reg.wl.completions.reset(now_);
    for (NodeId n = 0; n < net_->numNodes(); ++n)
        net_->router(n)->fileActiveTransfers();

    EjectionList &ej = net_->ejection();
    ej.pending.clear();
    ej.active.clear();
    for (int k = 0; k < net_->numEjectionPorts(); ++k) {
        InputPort *port = net_->ejectionPort(k);
        port->leaveEjectionList();
        if (port->occupied() > 0)
            port->armEjection();
    }
}

void
NetSim::run(Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c)
        step();
}

Cycle
NetSim::runUntilDrained(Cycle maxCycles, Cycle earliestDone)
{
    const Cycle limit = now_ + maxCycles;
    while (now_ < limit) {
        if (now_ >= earliestDone && drained() && ack_.pending() == 0)
            return now_;
        step();
    }
    return drained() && ack_.pending() == 0 ? now_ : kNoCycle;
}

namespace {

void
checkPortInvariants(const InputPort &port)
{
    for (int v = 0; v < static_cast<int>(port.vcs.size()); ++v) {
        const VirtualChannel &vc = port.vcs[static_cast<std::size_t>(v)];
        if (vc.state() == VirtualChannel::State::Free)
            continue;
        const NetPacket *pkt = vc.packet();
        TAQOS_ASSERT(pkt != nullptr, "occupied VC without packet");
        TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                     "VC %s/%d holds packet in state %d", port.name.c_str(),
                     v, static_cast<int>(pkt->state));
        bool found = false;
        for (int i = 0; i < pkt->numLocs; ++i) {
            const VcRef &loc = pkt->locs[static_cast<std::size_t>(i)];
            if (loc.port == &port && loc.vc == v)
                found = true;
        }
        TAQOS_ASSERT(found, "VC %s/%d not in its packet's locations",
                     port.name.c_str(), v);
    }
}

} // namespace

void
NetSim::checkInvariants() const
{
    auto *net = const_cast<Network *>(net_.get());
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        for (const auto &in : net->router(n)->inputs())
            checkPortInvariants(*in);
        checkPortInvariants(*net->termPort(n));
    }
    for (const InputPort *port : net->auxPorts())
        checkPortInvariants(*port);
    for (const auto &inj : net->injectors()) {
        TAQOS_ASSERT(inj.outstanding >= 0 &&
                         inj.outstanding <= inj.windowLimit,
                     "window counter out of bounds for flow %d", inj.flow);
    }

    // Activity-tracking consistency: the incremental counts must agree
    // with a full rescan, and every router with work must be armed (a
    // live router missing from the worklist would silently freeze).
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        const Router *r = net->router(n);
        int occupied = 0;
        int queued = 0;
        for (const auto &in : r->inputs()) {
            TAQOS_ASSERT(in->occupied() == in->occupiedVcs(),
                         "port %s occupancy count drifted (%d vs %d)",
                         in->name.c_str(), in->occupied(),
                         in->occupiedVcs());
            occupied += in->occupied();
            for (const InjectorQueue *inj : in->injectors)
                queued += static_cast<int>(inj->queue().size());
        }
        TAQOS_ASSERT(r->occupiedVcCount() == occupied,
                     "router %d VC-occupancy count drifted (%d vs %d)", n,
                     r->occupiedVcCount(), occupied);
        TAQOS_ASSERT(r->queuedPacketCount() == queued,
                     "router %d queued-packet count drifted (%d vs %d)", n,
                     r->queuedPacketCount(), queued);
        TAQOS_ASSERT(!engineCfg_.activityDriven || !r->hasWork() || r->inWorklist(),
                     "router %d has work but is not armed", n);
    }
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        const InputPort *term = net->termPort(n);
        TAQOS_ASSERT(term->occupied() == term->occupiedVcs(),
                     "terminal %d occupancy count drifted", n);
    }
    for (const InputPort *port : net->auxPorts()) {
        TAQOS_ASSERT(port->occupied() == port->occupiedVcs(),
                     "aux port %s occupancy count drifted",
                     port->name.c_str());
    }

    // Event schedules. Every buffer holding a packet is on the ejection
    // list (exactly the armed ones, each once).
    const EjectionList &ej = net->ejection();
    std::vector<std::uint8_t> listed(
        static_cast<std::size_t>(net->numEjectionPorts()), 0);
    for (const auto *list : {&ej.pending, &ej.active}) {
        for (int k : *list) {
            TAQOS_ASSERT(k >= 0 && k < net->numEjectionPorts(),
                         "ejection ordinal %d out of range", k);
            std::uint8_t &seen = listed[static_cast<std::size_t>(k)];
            TAQOS_ASSERT(seen == 0, "ejection ordinal %d listed twice", k);
            seen = 1;
        }
    }
    for (int k = 0; k < net->numEjectionPorts(); ++k) {
        const InputPort *port = net->ejectionPort(k);
        TAQOS_ASSERT(port->onEjectionList() ==
                         (listed[static_cast<std::size_t>(k)] != 0),
                     "buffer %s ejection flag disagrees with the list",
                     port->name.c_str());
        TAQOS_ASSERT(port->occupied() == 0 || port->onEjectionList(),
                     "buffer %s holds a packet but is not on the ejection "
                     "list",
                     port->name.c_str());
    }
    // Under the activity-driven engine every in-flight transfer sits on
    // its router's calendar at its tail departure, and every output's
    // wake covers the slots that are not yet eligible.
    if (engineCfg_.activityDriven) {
        for (NodeId n = 0; n < net->numNodes(); ++n) {
            const Router *r = net->router(n);
            for (const auto &out : r->outputs()) {
                const OutputPort::Transfer &xfer = out->transfer();
                TAQOS_ASSERT(!xfer.active ||
                                 (r->worklist() != nullptr &&
                                  r->worklist()->completions.holds(
                                      out.get(), xfer.tailDepart)),
                             "transfer on %s (tail departs %llu) is not "
                             "on the completion calendar",
                             out->name.c_str(),
                             static_cast<unsigned long long>(
                                 xfer.tailDepart));
            }
            r->checkWakes(now_);
        }
    }

    // The cached weight sum every priority, quota and GSF budget reads
    // must match the flow registers it was adopted from.
    const PvcParams &pvc = net->pvcParams();
    TAQOS_ASSERT(pvc.sumWeights() == pvc.recountWeights(),
                 "cached weight sum %llu drifted from the registers' %llu",
                 static_cast<unsigned long long>(pvc.sumWeights()),
                 static_cast<unsigned long long>(pvc.recountWeights()));
}

} // namespace taqos
