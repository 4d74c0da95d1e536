#include "router/router.h"

#include <cstdlib>

#include "common/log.h"
#include "noc/trace_sink.h"

namespace taqos {

Router::Router(NodeId node, QosMode mode, const PvcParams &params)
    : node_(node), params_(&params), policy_(makeQosPolicy(mode, params))
{
}

InputPort *
Router::addInputPort(std::unique_ptr<InputPort> port)
{
    port->owner = this;
    inputs_.push_back(std::move(port));
    return inputs_.back().get();
}

OutputPort *
Router::addOutputPort(std::unique_ptr<OutputPort> port)
{
    port->owner = this;
    port->index = static_cast<int>(outputs_.size());
    outputs_.push_back(std::move(port));
    return outputs_.back().get();
}

void
Router::setWorklist(ActivityWorklist *wl)
{
    worklist_ = wl;
    arm();
}

void
Router::arm()
{
    if (worklist_ != nullptr && !inWorklist_) {
        inWorklist_ = true;
        worklist_->pending.push_back(node_);
    }
}

void
Router::markArbDirty()
{
    dirtyOuts_.fill();
    // Frame flushes rewrite state the preemption victim search reads
    // (flow tables, carried priorities): spoil its memo too.
    ++mutEpoch_;
}

void
Router::insertSlot(int outPort, const ArbSlot &slot, Cycle eligibleAt)
{
    auto &list = slots_[static_cast<std::size_t>(outPort)];
    // Keep enumeration order so a per-output scan compares candidates in
    // exactly the sequence the legacy input-major scan would.
    auto it = list.begin();
    while (it != list.end() && it->key < slot.key)
        ++it;
    list.insert(it, slot);
    // Until `eligibleAt` every scan skips the new slot, so the cached
    // winner is exactly what a rescan would find; the wake brings the
    // rescan in on the first cycle it could differ (at once when the
    // slot is already eligible).
    wakeOutput(outPort, eligibleAt);
}

Cycle
Router::slotEligibleAt(const ArbSlot &slot) const
{
    const Cycle ready = static_cast<Cycle>(slot.port->pipelineDelay - 1);
    if (slot.inj != nullptr)
        return slot.inj->queue().front()->queuedCycle + ready;
    return slot.port->vcs[static_cast<std::size_t>(slot.vc)].headArrival() +
           ready;
}

void
Router::removeVcSlot(int outPort, const InputPort *in, int vcIdx)
{
    auto &list = slots_[static_cast<std::size_t>(outPort)];
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->port == in && it->vc == vcIdx) {
            list.erase(it);
            dirtyOutput(outPort);
            return;
        }
    }
    TAQOS_ASSERT(false, "router %d: missing VC slot %s/%d on output %d",
                 node_, in->name.c_str(), vcIdx, outPort);
}

void
Router::removeInjectorSlot(int outPort, const InjectorQueue *inj)
{
    auto &list = slots_[static_cast<std::size_t>(outPort)];
    for (auto it = list.begin(); it != list.end(); ++it) {
        if (it->inj == inj) {
            list.erase(it);
            dirtyOutput(outPort);
            return;
        }
    }
    TAQOS_ASSERT(false, "router %d: missing injector slot on output %d",
                 node_, outPort);
}

void
Router::addVcSlot(InputPort *in, int vcIdx)
{
    VirtualChannel &vc = in->vcs[static_cast<std::size_t>(vcIdx)];
    TAQOS_ASSERT(vc.arbOutput() < 0, "VC %s/%d already has a slot",
                 in->name.c_str(), vcIdx);
    const RouteEntry route = routeFor(*vc.packet());
    ArbSlot slot;
    slot.port = in;
    slot.vc = vcIdx;
    slot.key = in->enumBase + static_cast<std::uint32_t>(vcIdx) + 1;
    slot.dropIdx = route.dropIdx;
    insertSlot(route.outPort, slot, slotEligibleAt(slot));
    vc.setArbOutput(route.outPort);
}

void
Router::updateInjectorSlot(InjectorQueue &inj)
{
    if (inj.headOut >= 0) {
        removeInjectorSlot(inj.headOut, &inj);
        inj.headOut = -1;
    }
    if (inj.queue().empty())
        return;
    const RouteEntry route = routeFor(*inj.queue().front());
    ArbSlot slot;
    slot.port = inj.port;
    slot.inj = &inj;
    slot.key =
        inj.port->enumBase + static_cast<std::uint32_t>(inj.slotIdx) + 1;
    slot.dropIdx = route.dropIdx;
    insertSlot(route.outPort, slot, slotEligibleAt(slot));
    inj.headOut = route.outPort;
}

void
Router::noteVcReserved(InputPort *in, int vcIdx)
{
    ++hot_->occupiedVcs;
    addVcSlot(in, vcIdx);
    arm();
}

void
Router::noteVcFreed(InputPort *in, VirtualChannel &vc)
{
    --hot_->occupiedVcs;
    TAQOS_ASSERT(hot_->occupiedVcs >= 0, "router %d VC-occupancy underflow",
                 node_);
    // A Draining VC already surrendered its slot; a Reserved one (kill,
    // terminal ejection at a router-owned port) still holds it.
    if (vc.arbOutput() >= 0) {
        removeVcSlot(vc.arbOutput(), in, in->vcIndex(vc));
        vc.setArbOutput(-1);
    }
}

void
Router::noteVcDrained(InputPort *in, VirtualChannel &vc)
{
    TAQOS_ASSERT(vc.arbOutput() >= 0, "draining VC without a slot");
    removeVcSlot(vc.arbOutput(), in, in->vcIndex(vc));
    vc.setArbOutput(-1);
}

void
Router::noteInjectorEnqueue(InjectorQueue &inj, bool headChanged)
{
    ++hot_->queuedPkts;
    if (headChanged)
        updateInjectorSlot(inj);
    arm();
}

void
Router::noteInjectorDequeue(InjectorQueue &inj)
{
    --hot_->queuedPkts;
    TAQOS_ASSERT(hot_->queuedPkts >= 0, "router %d queued-packet underflow",
                 node_);
    updateInjectorSlot(inj);
}

void
Router::noteInjectorWindowChange(InjectorQueue &inj)
{
    // The head may have been stalled on the retransmission window.
    if (inj.headOut >= 0)
        dirtyOutput(inj.headOut);
}

void
Router::noteXferStarted(OutputPort &out)
{
    const Cycle tailDepart = out.transfer().tailDepart;
    ++hot_->activeXfers;
    if (tailDepart < hot_->nextCompletion)
        hot_->nextCompletion = tailDepart;
    fileCompletion(out);
    arm();
}

void
Router::noteXferEnded()
{
    --hot_->activeXfers;
    TAQOS_ASSERT(hot_->activeXfers >= 0, "router %d transfer-count underflow",
                 node_);
}

void
Router::noteTableMutated(int tableIdx)
{
    if (tableIdx < 0) {
        markArbDirty();
        return;
    }
    for (int o : tableOuts_[static_cast<std::size_t>(tableIdx)])
        dirtyOutput(o);
}

XbarGroup *
Router::addXbarGroup()
{
    groups_.push_back(std::make_unique<XbarGroup>());
    return groups_.back().get();
}

void
Router::setRoute(NodeId dest, RouteEntry entry)
{
    if (static_cast<std::size_t>(dest) >= routes_.size())
        routes_.resize(static_cast<std::size_t>(dest) + 1);
    routes_[static_cast<std::size_t>(dest)] = entry;
}

void
Router::finalize()
{
    int numTables = 0;
    for (const auto &out : outputs_) {
        TAQOS_ASSERT(out->tableIdx >= 0, "output %s has no flow table id",
                     out->name.c_str());
        numTables = std::max(numTables, out->tableIdx + 1);
    }
    // Per-flow bandwidth state exists only for the policies that schedule
    // by it: PVC, the per-flow queueing reference (same virtual clock),
    // and WRR (round-count meter).
    if (policy_->usesFlowTable()) {
        flowTable_ = FlowTable(*params_, numTables);
        flowTable_.setOwner(this);
    }
    best_.resize(outputs_.size());
    policy_->init(static_cast<int>(outputs_.size()));

    // Activity-tracking structure. Enumeration bases reproduce the
    // legacy input-major candidate numbering (the round-robin keys);
    // under unbounded per-flow VCs later ports' live numbering can
    // drift from these static bases, but the rrKey is only decisive for
    // the rotating no-qos arbiter, whose VC structure is static.
    std::uint32_t base = 0;
    for (const auto &in : inputs_) {
        in->enumBase = base;
        if (in->kind == InputPort::Kind::Injection) {
            for (std::size_t k = 0; k < in->injectors.size(); ++k)
                in->injectors[k]->slotIdx = static_cast<int>(k);
            base += static_cast<std::uint32_t>(in->injectors.size());
        } else {
            base += static_cast<std::uint32_t>(in->vcs.size());
        }
    }
    slots_.assign(outputs_.size(), {});
    dirtyOuts_.resize(outputs_.size());
    dirtyOuts_.fill();
    winnerOuts_.resize(outputs_.size());
    outWake_.assign(outputs_.size(), 0);
    preemptMemo_.assign(outputs_.size(), {});
    tableOuts_.assign(static_cast<std::size_t>(numTables), {});
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        tableOuts_[static_cast<std::size_t>(outputs_[o]->tableIdx)]
            .push_back(static_cast<int>(o));
    }
}

RouteEntry
Router::routeFor(const NetPacket &pkt) const
{
    TAQOS_ASSERT(static_cast<std::size_t>(pkt.dst) < routes_.size(),
                 "router %d has no route to %d", node_, pkt.dst);
    RouteEntry entry = routes_[static_cast<std::size_t>(pkt.dst)];
    TAQOS_ASSERT(entry.outPort >= 0, "router %d: unroutable dest %d", node_,
                 pkt.dst);
    if (entry.numParallel > 1) {
        // Replicated mesh: spread packets across the parallel channels.
        entry.outPort +=
            static_cast<int>(pkt.id % static_cast<PacketId>(entry.numParallel));
        entry.numParallel = 1;
    }
    return entry;
}

std::uint64_t
Router::priorityFor(const NetPacket &pkt, const InputPort &in,
                    int outPort) const
{
    return policy_->priority(
        pkt, in.usesCarriedPrio, flowTable_,
        outputs_[static_cast<std::size_t>(outPort)]->tableIdx);
}

bool
Router::betterThan(const Candidate &a, const Candidate &b, int outPort) const
{
    return policy_->betterThan(ArbKey{a.prio, a.age, a.pkt->flow, a.rrKey},
                               ArbKey{b.prio, b.age, b.pkt->flow, b.rrKey},
                               outPort);
}

void
Router::collectCandidates(TickContext &ctx)
{
    for (auto &b : best_)
        b.pkt = nullptr;

    std::uint32_t enumIdx = 0;
    for (const auto &inPtr : inputs_) {
        InputPort *in = inPtr.get();
        const Cycle ready = static_cast<Cycle>(in->pipelineDelay - 1);

        if (in->kind == InputPort::Kind::Injection) {
            for (InjectorQueue *inj : in->injectors) {
                ++enumIdx;
                if (inj->queue().empty())
                    continue;
                NetPacket *pkt = inj->queue().front();
                // The retransmission window gates new injections; a NACKed
                // packet already owns its slot.
                if (!pkt->inWindow && !inj->windowOpen())
                    continue;
                if (ctx.now < pkt->queuedCycle + ready)
                    continue;
                // Source-side policy gate (GSF frame budgets): an
                // unadmitted packet stalls its queue.
                if (ctx.gate != nullptr && !ctx.gate->admit(*pkt, ctx.now))
                    continue;
                Candidate cand;
                cand.pkt = pkt;
                cand.port = in;
                cand.vc = -1;
                cand.inj = inj;
                cand.age = pkt->genCycle;
                cand.rrKey = enumIdx;
                const RouteEntry route = routeFor(*pkt);
                cand.outPort = route.outPort;
                cand.dropIdx = route.dropIdx;
                cand.prio = priorityFor(*pkt, *in, cand.outPort);
                auto &best = best_[static_cast<std::size_t>(cand.outPort)];
                if (best.pkt == nullptr ||
                    betterThan(cand, best, cand.outPort)) {
                    best = cand;
                }
            }
            continue;
        }

        for (int v = 0; v < static_cast<int>(in->vcs.size()); ++v) {
            ++enumIdx;
            const VirtualChannel &vc = in->vcs[static_cast<std::size_t>(v)];
            if (vc.state() != VirtualChannel::State::Reserved)
                continue; // Free, or already draining towards the next hop
            if (!vc.arrived(ctx.now) || ctx.now < vc.headArrival() + ready)
                continue;
            NetPacket *pkt = vc.packet();
            Candidate cand;
            cand.pkt = pkt;
            cand.port = in;
            cand.vc = v;
            cand.age = pkt->genCycle;
            cand.rrKey = enumIdx;
            const RouteEntry route = routeFor(*pkt);
            cand.outPort = route.outPort;
            cand.dropIdx = route.dropIdx;
            cand.prio = priorityFor(*pkt, *in, cand.outPort);
            auto &best = best_[static_cast<std::size_t>(cand.outPort)];
            if (best.pkt == nullptr || betterThan(cand, best, cand.outPort))
                best = cand;
        }
    }
}

bool
Router::collectOutput(int outPort, TickContext &ctx)
{
    Candidate &best = best_[static_cast<std::size_t>(outPort)];
    best.pkt = nullptr;
    winnerOuts_.reset(static_cast<std::size_t>(outPort));

    // Earliest purely time-driven change to this output's candidate set.
    // Event-driven changes (frees, enqueues, table charges, window/gate
    // state) dirty the output through the hooks instead.
    Cycle wake = kNoCycle;

    for (const ArbSlot &slot : slots_[static_cast<std::size_t>(outPort)]) {
        const Cycle ready =
            static_cast<Cycle>(slot.port->pipelineDelay - 1);
        NetPacket *pkt = nullptr;
        if (slot.inj != nullptr) {
            pkt = slot.inj->queue().front();
            if (!pkt->inWindow && !slot.inj->windowOpen())
                continue;
            if (ctx.now < pkt->queuedCycle + ready) {
                const Cycle at = pkt->queuedCycle + ready;
                if (at < wake)
                    wake = at;
                continue;
            }
            if (ctx.gate != nullptr) {
                // A gate admission may mutate engine-global state (GSF
                // charges a frame budget and stamps the packet). The
                // sharded parallel scan must not do that — both for
                // determinism (admissions are ordered by node) and
                // because the gate is shared across regions — so it only
                // proceeds when the gate vouches the call is pure;
                // otherwise the whole output is left for the serial
                // grant phase.
                if (ctx.speculative) {
                    if (!ctx.gate->admitIsPure(*pkt)) {
                        best.pkt = nullptr;
                        return false;
                    }
                } else if (!ctx.gate->admit(*pkt, ctx.now)) {
                    continue;
                }
            }
        } else {
            const VirtualChannel &vc =
                slot.port->vcs[static_cast<std::size_t>(slot.vc)];
            TAQOS_ASSERT(vc.state() == VirtualChannel::State::Reserved,
                         "stale arbitration slot on %s/%d",
                         slot.port->name.c_str(), slot.vc);
            if (!vc.arrived(ctx.now) ||
                ctx.now < vc.headArrival() + ready) {
                const Cycle at = vc.headArrival() + ready;
                if (at < wake)
                    wake = at;
                continue;
            }
            pkt = vc.packet();
        }

        Candidate cand;
        cand.pkt = pkt;
        cand.port = slot.port;
        cand.vc = slot.vc;
        cand.inj = slot.inj;
        cand.age = pkt->genCycle;
        cand.rrKey = slot.key;
        cand.outPort = outPort;
        cand.dropIdx = slot.dropIdx;
        cand.prio = priorityFor(*pkt, *slot.port, outPort);
        if (best.pkt == nullptr || betterThan(cand, best, outPort))
            best = cand;
    }

    outWake_[static_cast<std::size_t>(outPort)] = wake;
    if (best.pkt != nullptr)
        winnerOuts_.set(static_cast<std::size_t>(outPort));
    return true;
}

bool
Router::validate(const Candidate &cand) const
{
    if (cand.vc >= 0) {
        const VirtualChannel &vc =
            cand.port->vcs[static_cast<std::size_t>(cand.vc)];
        return vc.state() == VirtualChannel::State::Reserved &&
               vc.packet() == cand.pkt &&
               cand.pkt->state == PacketState::InFlight;
    }
    return !cand.inj->queue().empty() &&
           cand.inj->queue().front() == cand.pkt &&
           cand.pkt->state == PacketState::Queued;
}

void
Router::tryGrant(Candidate &cand, TickContext &ctx)
{
    if (!validate(cand))
        return;
    OutputPort *out = outputs_[static_cast<std::size_t>(cand.outPort)].get();
    NetPacket *pkt = cand.pkt;

    if (!out->linkFree(ctx.now) || out->transfer().active) {
        // Blocked by an ongoing transfer on the output channel. A
        // higher-priority arrival does not interrupt the transfer — but a
        // preemption does (Sec. 4): if the policy judges the inversion to
        // have persisted past its wait threshold, the streaming packet is
        // discarded.
        if (pkt->blockedSince == kNoCycle)
            pkt->blockedSince = ctx.now;
        if (out->transfer().active &&
            policy_->onAllocFail(ctx.now - pkt->blockedSince,
                                 /*xferBlocked=*/true)) {
            tryPreempt(cand,
                       out->drops[static_cast<std::size_t>(cand.dropIdx)]
                           .down,
                       ctx);
        }
        return;
    }
    if (cand.port->group != nullptr && !cand.port->group->freeAt(ctx.now))
        return;

    const bool fromInjection = cand.vc < 0;
    const bool compliant = fromInjection
        ? (ctx.quota != nullptr &&
           ctx.quota->compliant(pkt->flow, pkt->sizeFlits))
        : pkt->rateCompliant;

    OutputPort::Drop &drop =
        out->drops[static_cast<std::size_t>(cand.dropIdx)];
    InputPort *down = drop.down;
    const int vcIdx = down->findFreeVc(ctx.now, compliant);
    if (vcIdx < 0) {
        if (pkt->blockedSince == kNoCycle)
            pkt->blockedSince = ctx.now;
        if (policy_->onAllocFail(ctx.now - pkt->blockedSince,
                                 /*xferBlocked=*/false)) {
            tryPreempt(cand, down, ctx);
        }
        return;
    }
    pkt->blockedSince = kNoCycle;

    if (fromInjection) {
        cand.inj->dequeue();
        pkt->beginAttempt(ctx.now);
        // The compliance mark protects this packet at hops that reuse the
        // source-computed priority (DPS pass-through). Stamp it from the
        // source router's per-output counter — the same basis those hops'
        // upstream arbitration charged — not the source-global meter,
        // which conflates traffic to unrelated destinations.
        pkt->rateCompliant = flowTable_.enabled()
            ? quotaProtected(*pkt, true, out->tableIdx)
            : compliant;
        // The reserved quota meters the source's own demand; a replay is
        // the network's fault and does not burn reserved share.
        if (ctx.quota != nullptr && pkt->attempt == 1)
            ctx.quota->charge(pkt->flow, pkt->sizeFlits);
        if (!pkt->inWindow) {
            pkt->inWindow = true;
            ++cand.inj->outstanding;
        }
        if (ctx.metrics != nullptr)
            ++ctx.metrics->injectedAttempts;
        if (trace_ != nullptr)
            trace_->inject(ctx.now, node_, *pkt);
    }

    // Priority reuse: the next hop (a DPS repeater, or any router without
    // local state for this flow) arbitrates with the value computed here.
    pkt->carriedPrio = cand.prio;
    if (flowTable_.enabled() && !cand.port->usesCarriedPrio) {
        flowTable_.charge(out->tableIdx, pkt->flow, pkt->sizeFlits);
        pkt->logCharge(&flowTable_, out->tableIdx);
    }

    const Cycle headArrival = ctx.now + 1 + static_cast<Cycle>(drop.wireDelay);
    const Cycle tailArrival =
        headArrival + static_cast<Cycle>(pkt->sizeFlits) - 1;
    down->vcs[static_cast<std::size_t>(vcIdx)].reserve(pkt, headArrival,
                                                       tailArrival);
    pkt->addLoc(down, vcIdx);

    const VcRef srcVc = fromInjection ? VcRef{nullptr, -1}
                                      : VcRef{cand.port, cand.vc};
    out->startTransfer(pkt, cand.dropIdx, vcIdx, srcVc, ctx.now);
    if (trace_ != nullptr)
        trace_->hop(ctx.now, node_, *down, vcIdx, *pkt);

    if (cand.port->group != nullptr)
        cand.port->group->occupy(ctx.now, pkt->sizeFlits);

    policy_->onGrant(cand.outPort,
                     ArbKey{cand.prio, cand.age, pkt->flow, cand.rrKey});
    // The grant rotated policy state and consumed a candidate: rescan
    // this output next cycle. (The slot hooks above already imply it;
    // kept explicit because onGrant state is invisible to them.)
    dirtyOutput(cand.outPort);
}

bool
Router::quotaProtected(const NetPacket &pkt, bool localState,
                       int tableIdx) const
{
    if (!params_->quotaEnabled)
        return false;
    // "The first N flits from each source [per frame] are non-preemptable":
    // judged against the local bandwidth counter where the router keeps
    // one, or the compliance mark stamped at injection on DPS pass-through
    // paths (priority reuse).
    if (localState) {
        const double cap = params_->quotaProtectFactor *
                           static_cast<double>(params_->quotaFlits(pkt.flow));
        return static_cast<double>(flowTable_.countOf(tableIdx, pkt.flow)) <=
               cap;
    }
    return pkt.rateCompliant;
}

bool
Router::tryPreempt(const Candidate &cand, InputPort *down, TickContext &ctx)
{
    // Priority inversion: the requester is blocked on its output by
    // buffered lower-priority packets (no downstream VC, or the channel is
    // streaming someone else's packet). Discard the lowest-priority
    // blocker, subject to:
    //  - reserved-quota protection ("the first N flits from each source
    //    in a frame are non-preemptable"): a flow whose local bandwidth
    //    counter is still within its provisioned per-frame share cannot be
    //    a victim — with every source transmitting at its fair share all
    //    traffic stays under the cap, throttling preemptions (Sec. 5.3);
    //  - a minimum priority gap (counter noise is not an inversion).
    // Victims are taken from packets *waiting* for this output: the
    // occupants of the downstream VCs and the rival packets buffered at
    // this router's inputs. On equal priority a victim that is not
    // mid-transfer is preferred — discarding work already on a wire costs
    // throughput (Sec. 5.3 notes most victims fall at or near the source).
    const bool localState =
        flowTable_.enabled() && !cand.port->usesCarriedPrio;
    const int tbl =
        outputs_[static_cast<std::size_t>(cand.outPort)]->tableIdx;

    // A victimless search is pure, and its outcome depends only on the
    // requester, its priority, and the buffered-packet/table state on
    // both sides of the contested channel — all tracked by the mutation
    // epochs. A blocked requester retries every cycle past the wait
    // threshold; without the memo those retries rescan identical state.
    PreemptMemo &memo =
        preemptMemo_[static_cast<std::size_t>(cand.outPort)];
    if (!ctx.forceScan && memo.pkt == cand.pkt && memo.prio == cand.prio &&
        memo.down == down && memo.selfEpoch == mutEpoch_ &&
        memo.downEpoch == down->mutEpoch()) {
        return false;
    }

    NetPacket *victim = nullptr;
    std::uint64_t victimPrio = 0;

    auto consider = [&](NetPacket *pkt) {
        if (pkt == nullptr || pkt == cand.pkt || pkt == victim)
            return;
        if (quotaProtected(*pkt, localState, tbl))
            return;
        const std::uint64_t prio = localState
            ? flowTable_.priorityOf(tbl, pkt->flow)
            : pkt->carriedPrio;
        if (prio <= cand.prio ||
            prio - cand.prio <= params_->preemptGapScaled()) {
            return;
        }
        if (victim == nullptr || prio > victimPrio ||
            (prio == victimPrio && victim->numXfers > 0 &&
             pkt->numXfers == 0)) {
            victim = pkt;
            victimPrio = prio;
        }
    };

    // Downstream VC occupants (waiting or still arriving — not the ones
    // already draining onwards).
    for (const auto &vc : down->vcs) {
        if (vc.state() == VirtualChannel::State::Draining)
            continue;
        consider(vc.packet());
    }
    // Rival packets buffered at this router and routed to the same
    // output. The cached slot list of the contested output holds exactly
    // that set, in the enumeration order the full scan would visit (the
    // equal-priority tie favours the first-seen victim, so the order is
    // semantically load-bearing); the legacy reference engine takes the
    // full scan instead.
    if (ctx.forceScan) {
        for (const auto &inPtr : inputs_) {
            for (const auto &vc : inPtr->vcs) {
                if (vc.state() != VirtualChannel::State::Reserved)
                    continue;
                NetPacket *pkt = vc.packet();
                if (pkt == nullptr ||
                    routeFor(*pkt).outPort != cand.outPort) {
                    continue;
                }
                consider(pkt);
            }
        }
    } else {
        for (const ArbSlot &slot :
             slots_[static_cast<std::size_t>(cand.outPort)]) {
            if (slot.inj != nullptr)
                continue; // source-queued packets hold no buffer here
            consider(slot.port->vcs[static_cast<std::size_t>(slot.vc)]
                         .packet());
        }
    }

    if (victim == nullptr) {
        memo.pkt = cand.pkt;
        memo.prio = cand.prio;
        memo.down = down;
        memo.selfEpoch = mutEpoch_;
        memo.downEpoch = down->mutEpoch();
        return false;
    }
    killPacket(victim, ctx);
    return true;
}

void
Router::killPacket(NetPacket *victim, TickContext &ctx)
{
    TAQOS_ASSERT(victim->state == PacketState::InFlight,
                 "preempting packet in state %d",
                 static_cast<int>(victim->state));

    // Record the kill before the teardown below frees the victim's VCs,
    // so the trace shows K and then the chain's F events.
    if (trace_ != nullptr)
        trace_->kill(ctx.now, node_, *victim);

    double wasted = victim->hopsThisAttempt;
    while (victim->numXfers > 0)
        wasted += victim->xfers[0]->cancelTransfer(ctx.now);

    for (int i = 0; i < victim->numLocs; ++i) {
        const VcRef &loc = victim->locs[static_cast<std::size_t>(i)];
        loc.port->vcs[static_cast<std::size_t>(loc.vc)].free(
            ctx.now + static_cast<Cycle>(loc.port->creditDelay));
    }
    victim->clearLocs();
    victim->state = PacketState::Dropped;
    ++victim->preemptions;

    // Refund the attempt's bandwidth charges: the discarded service must
    // not count against the victim's virtual clock.
    for (int i = 0; i < victim->numCharges; ++i) {
        auto *table = static_cast<FlowTable *>(
            victim->charges[static_cast<std::size_t>(i)].table);
        table->uncharge(victim->charges[static_cast<std::size_t>(i)].tableIdx,
                        victim->flow, victim->sizeFlits);
    }
    victim->numCharges = 0;

    if (ctx.metrics != nullptr) {
        ++ctx.metrics->preemptionEvents;
        ctx.metrics->wastedHops += wasted;
    }
    TAQOS_ASSERT(ctx.ack != nullptr, "PVC preemption requires an ACK network");
    ctx.ack->send(ctx.now, std::abs(node_ - victim->src), victim,
                  /*isNack=*/true);
    TAQOS_LOG_DEBUG("cycle %llu: node %d preempted packet %llu "
                    "(flow %d, %.1f hops wasted)",
                    static_cast<unsigned long long>(ctx.now), node_,
                    static_cast<unsigned long long>(victim->id),
                    victim->flow, wasted);
}

void
Router::setTraceSink(TraceSink *sink)
{
    trace_ = sink;
    for (const auto &in : inputs_) {
        if (sink != nullptr)
            sink->registerPort(*in, /*terminal=*/false);
        in->trace = sink;
    }
}

void
Router::tickCompletions(Cycle now)
{
    // nextCompletion is a lower bound on the earliest active transfer's
    // tail departure (a cancellation can only raise the true minimum), so
    // ticks before it are exact no-ops for every output.
    if (hot_->activeXfers == 0 || now < hot_->nextCompletion)
        return;
    Cycle next = kNoCycle;
    for (const auto &out : outputs_) {
        out->tickCompletion(now);
        const OutputPort::Transfer &xfer = out->transfer();
        if (xfer.active && xfer.tailDepart < next)
            next = xfer.tailDepart;
    }
    hot_->nextCompletion = next;
}

void
Router::tickArbitrate(TickContext &ctx)
{
    if (ctx.forceScan) {
        collectCandidates(ctx);
        for (std::size_t o = 0; o < outputs_.size(); ++o) {
            if (best_[o].pkt != nullptr)
                tryGrant(best_[o], ctx);
        }
        return;
    }

    // A cached winner set stays valid until an event dirties its output
    // or a scheduled eligibility comes due. All scans run before any
    // grant (the legacy collect-then-grant split), so a grant's side
    // effects never feed a same-cycle rescan the always-tick engine
    // would not have done; grant attempts on cached winners re-run every
    // cycle regardless, so time-driven grant conditions (link free,
    // credit visibility, crossbar slots, preemption wait thresholds) are
    // evaluated on exactly the cycles the always-tick engine would.
    scanOutputs(ctx);
    winnerOuts_.forEach([&](std::size_t o) { tryGrant(best_[o], ctx); });
}

void
Router::tickScan(TickContext &ctx)
{
    TAQOS_ASSERT(ctx.speculative, "tickScan is the speculative scan phase");
    // The scan's inputs are all router-local (own slot lists, own input
    // VCs and injector queues, packet fields no concurrent phase
    // writes), so regions can run it concurrently; a grant-phase event
    // at another router that could change a result re-dirties the
    // affected output through the hooks, re-scanning it serially at this
    // router's turn — exactly when the serial engine would have scanned
    // it.
    scanOutputs(ctx);
}

void
Router::scanOutputs(TickContext &ctx)
{
    Cycle minWake = minWake_;
    if (ctx.now >= minWake_) {
        // Wake pass: outputs come due are rescanned like dirty ones; the
        // rest bound the next pass exactly.
        minWake = kNoCycle;
        for (std::size_t o = 0; o < outputs_.size(); ++o) {
            if (ctx.now >= outWake_[o])
                dirtyOuts_.set(o);
            else if (!dirtyOuts_.test(o) && outWake_[o] < minWake)
                minWake = outWake_[o];
        }
    } else if (!dirtyOuts_.any()) {
        return;
    }
    // Ascending output order keeps every scan side effect (GSF
    // admissions) in the always-tick engine's sequence.
    dirtyOuts_.drain([&](std::size_t o) {
        if (!collectOutput(static_cast<int>(o), ctx)) {
            // Impure gate admission: the serial grant phase must redo
            // this output with the real admit call. Force its rescan by
            // keeping it dirty; the cleared best keeps the stale winner
            // from being granted if the rescan finds the packet
            // inadmissible.
            dirtyOuts_.set(o);
            outWake_[o] = kNoCycle;
        }
        if (outWake_[o] < minWake)
            minWake = outWake_[o];
    });
    minWake_ = minWake;
}

void
Router::tick(TickContext &ctx)
{
    tickCompletions(ctx.now);
    tickArbitrate(ctx);
}

void
Router::rebuildFromRestore()
{
    for (const auto &in : inputs_)
        in->recountHot();
    hot_->occupiedVcs = 0;
    hot_->queuedPkts = 0;
    hot_->activeXfers = 0;
    hot_->nextCompletion = kNoCycle;
    for (const auto &in : inputs_) {
        hot_->occupiedVcs += in->occupied();
        hot_->queuedPkts += in->queuedPackets();
    }
    for (const auto &out : outputs_) {
        const OutputPort::Transfer &xfer = out->transfer();
        if (xfer.active) {
            ++hot_->activeXfers;
            if (xfer.tailDepart < hot_->nextCompletion)
                hot_->nextCompletion = xfer.tailDepart;
        }
    }

    // Rebuild the per-output slot lists from scratch: exactly the slots
    // the incremental hooks would be maintaining — every Reserved VC
    // (Draining VCs surrendered theirs on drain start) and every
    // non-empty injector queue's head.
    for (auto &list : slots_)
        list.clear();
    for (const auto &in : inputs_) {
        for (std::size_t v = 0; v < in->vcs.size(); ++v) {
            VirtualChannel &vc = in->vcs[v];
            vc.setArbOutput(-1);
            if (vc.state() == VirtualChannel::State::Reserved)
                addVcSlot(in.get(), static_cast<int>(v));
        }
        for (InjectorQueue *inj : in->injectors) {
            inj->headOut = -1;
            if (!inj->queue().empty())
                updateInjectorSlot(*inj);
        }
    }

    // Drop every cached arbitration result. The first tick rescans all
    // outputs — the same full invalidation a frame flush performs, which
    // the always-tick cross-check proves bit-identical.
    for (auto &b : best_)
        b = Candidate{};
    dirtyOuts_.fill();
    winnerOuts_.clear();
    std::fill(outWake_.begin(), outWake_.end(), 0);
    preemptMemo_.assign(outputs_.size(), {});
    minWake_ = 0;
    mutEpoch_ = 0;
    inWorklist_ = false; // the engine repopulates its pending lists
}

void
Router::fileCompletion(OutputPort &out)
{
    if (worklist_ != nullptr) {
        worklist_->completions.file(
            &out, CompletionCalendar::orderKey(node_, out.index),
            out.transfer().tailDepart);
    }
}

void
Router::fileActiveTransfers()
{
    for (const auto &out : outputs_) {
        if (out->transfer().active)
            fileCompletion(*out);
    }
}

void
Router::checkWakes(Cycle now) const
{
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        TAQOS_ASSERT(minWake_ <= outWake_[o],
                     "router %d: summary wake %llu later than output "
                     "%zu's %llu",
                     node_, static_cast<unsigned long long>(minWake_), o,
                     static_cast<unsigned long long>(outWake_[o]));
        TAQOS_ASSERT(winnerOuts_.test(o) == (best_[o].pkt != nullptr),
                     "router %d output %zu: winner bit %d but best %s",
                     node_, o, winnerOuts_.test(o) ? 1 : 0,
                     best_[o].pkt != nullptr ? "holds a packet" : "is empty");
        if (dirtyOuts_.test(o))
            continue;
        for (const ArbSlot &slot : slots_[o]) {
            // A head stalled on its retransmission window waits for the
            // window-change hook, not for time.
            if (slot.inj != nullptr &&
                !slot.inj->queue().front()->inWindow &&
                !slot.inj->windowOpen()) {
                continue;
            }
            const Cycle at = slotEligibleAt(slot);
            TAQOS_ASSERT(at < now || outWake_[o] <= at,
                         "router %d output %zu: slot %s/%d eligible at "
                         "%llu but the output wakes at %llu",
                         node_, o, slot.port->name.c_str(),
                         slot.inj != nullptr ? slot.inj->slotIdx : slot.vc,
                         static_cast<unsigned long long>(at),
                         static_cast<unsigned long long>(outWake_[o]));
        }
    }
}

void
Router::frameFlush()
{
    if (flowTable_.enabled())
        flowTable_.flush();
    policy_->rollover();
}

} // namespace taqos
