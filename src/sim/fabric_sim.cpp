#include "sim/fabric_sim.h"

#include "common/assert.h"
#include "noc/trace_sink.h"
#include "sim/checkpoint.h"

namespace taqos {

FabricTrafficSource::FabricTrafficSource(FabricNetwork &net,
                                         const TrafficConfig &traffic)
    : FabricTrafficSource(net, traffic, WorkloadSpec{})
{
}

FabricTrafficSource::FabricTrafficSource(FabricNetwork &net,
                                         const TrafficConfig &traffic,
                                         const WorkloadSpec &workload)
    : net_(net), traffic_(traffic),
      scratch_(static_cast<std::size_t>(net.flowsPerBlock()))
{
    TAQOS_ASSERT(workload.isSteady() || workload.modulated(),
                 "fabric traffic supports steady/bursty/ramp workloads, "
                 "got %s",
                 workloadKindName(workload.kind));
    const int fpb = net_.flowsPerBlock();
    const int slots = net_.slotsPerNode();
    gens_.reserve(static_cast<std::size_t>(net_.blocks()));
    for (int g = 0; g < net_.blocks(); ++g) {
        const int j = g % net_.blocksPerChip();
        TrafficConfig bt = traffic_;
        // Decorrelate the blocks' Bernoulli streams; block 0 keeps the
        // seed unchanged so a one-block fabric reproduces
        // ChipTrafficSource's stream byte for byte. A modulated workload
        // derives each block's modulator streams from the same
        // per-block seed, so burst phases decorrelate too.
        bt.seed = traffic_.seed +
                  0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(g);
        bt.activeFlows.assign(static_cast<std::size_t>(fpb), false);
        for (int f = 0; f < fpb; ++f) {
            const FlowId F = g * fpb + f;
            bt.activeFlows[static_cast<std::size_t>(f)] =
                net_.slotUsable(j, f % slots) && traffic_.flowActive(F);
        }
        if (!traffic_.flowRates.empty()) {
            bt.flowRates.assign(
                traffic_.flowRates.begin() + g * fpb,
                traffic_.flowRates.begin() + (g + 1) * fpb);
        }
        gens_.push_back(std::make_unique<TrafficGenerator>(
            net_.blockCfg(g), bt, workload));
    }
}

std::uint64_t
FabricTrafficSource::suppressed() const
{
    std::uint64_t n = suppressed_;
    for (const auto &gen : gens_)
        n += gen->suppressed();
    return n;
}

void
FabricTrafficSource::tick(Cycle now, PacketPool &pool,
                          std::vector<InjectorQueue> &injectors,
                          SimMetrics &metrics)
{
    const int B = net_.blocksPerChip();
    const int H = net_.gridHeight();
    const int slots = net_.slotsPerNode();
    const int fpb = net_.flowsPerBlock();

    for (int g = 0; g < net_.blocks(); ++g) {
        TrafficGenerator &gen = *gens_[static_cast<std::size_t>(g)];
        gen.tick(now, pool, scratch_, metrics);
        const int c = g / B;
        const int j = g % B;
        const NodeId base = net_.blockBase(g);
        for (const FlowId f : gen.emitted()) {
            NetPacket *pkt = scratch_[static_cast<std::size_t>(f)].dequeue();
            const int k = f % slots;
            const int y = f / slots;
            const FlowId F = g * fpb + f;
            const NodeId localDst = pkt->dst; // generator picks 0..H-1
            TAQOS_ASSERT(localDst >= 0 && localDst < H,
                         "generated destination out of the block");

            InjectorQueue *origin = nullptr;
            if (k == 0) {
                // Terminal flows originate at the block node itself.
                origin = &injectors[static_cast<std::size_t>(F)];
                pkt->src = base + y;
                pkt->dst = base + localDst;
            } else {
                // Row flows ride the origin chip's row mesh to its
                // block-entry node first; the wiring decides which
                // compute-node port pulls this flow's row queue. `src`
                // stays the column entry so ACK/NACK distances remain
                // column-local, exactly like ChipSim.
                int originChip = c;
                if (k > static_cast<int>(net_.catchment(j).size()))
                    originChip = net_.remoteSourceChip(c, k);
                origin = &net_.rowQueues()[static_cast<std::size_t>(F)];
                pkt->src = base + y;
                pkt->finalDst = base + localDst;
                pkt->dst = net_.blockNodeId(originChip, j, y);
            }
            pkt->flow = F;

            if (origin->queue().size() >= traffic_.maxQueueDepth) {
                // Bounded memory far past saturation: undo the
                // generator's accounting, as its own suppression would.
                ++suppressed_;
                --metrics.generatedPackets;
                metrics.generatedFlits -=
                    static_cast<std::uint64_t>(pkt->sizeFlits);
                if (pkt->measured)
                    --metrics.measuredGenerated;
                pool.release(pkt);
                continue;
            }
            origin->enqueue(pkt);
        }
    }
}

std::vector<std::uint64_t>
FabricTrafficSource::packState() const
{
    std::vector<std::uint64_t> w;
    w.push_back(gens_.size());
    for (const auto &gen : gens_) {
        const std::vector<std::uint64_t> g = gen->packState();
        w.push_back(g.size());
        w.insert(w.end(), g.begin(), g.end());
    }
    w.push_back(suppressed_);
    return w;
}

void
FabricTrafficSource::unpackState(const std::vector<std::uint64_t> &words)
{
    TAQOS_ASSERT(!words.empty(), "fabric traffic-source state empty");
    TAQOS_ASSERT(words[0] == gens_.size(),
                 "fabric traffic-source generator count mismatch");
    std::size_t pos = 1;
    for (const auto &gen : gens_) {
        TAQOS_ASSERT(pos < words.size(),
                     "fabric traffic-source state truncated");
        const std::size_t len = static_cast<std::size_t>(words[pos++]);
        TAQOS_ASSERT(pos + len < words.size() + 1,
                     "fabric traffic-source state truncated");
        gen->unpackState(std::vector<std::uint64_t>(
            words.begin() + static_cast<std::ptrdiff_t>(pos),
            words.begin() + static_cast<std::ptrdiff_t>(pos + len)));
        pos += len;
    }
    TAQOS_ASSERT(pos + 1 == words.size(),
                 "fabric traffic-source state size mismatch");
    suppressed_ = words[pos];
}

FabricSim::FabricSim(const FabricSpec &spec, const TrafficConfig &traffic)
    : FabricSim(spec, traffic, WorkloadSpec{})
{
}

FabricSim::FabricSim(const FabricSpec &spec, const TrafficConfig &traffic,
                     const WorkloadSpec &workload)
    : NetSim(FabricNetwork::build(spec))
{
    auto src = std::make_unique<FabricTrafficSource>(network(), traffic,
                                                     workload);
    src_ = src.get();
    setTrafficSource(std::move(src));

    const FabricSpec &sp = network().spec();
    if (sp.chips > 1) {
        if (sp.links == LinkTopology::PointToPoint) {
            links_.resize(
                static_cast<std::size_t>(sp.chips) *
                static_cast<std::size_t>(sp.chips));
            for (int s = 0; s < sp.chips; ++s) {
                for (int d = 0; d < sp.chips; ++d)
                    links_[static_cast<std::size_t>(s * sp.chips + d)]
                        .dstChip = d;
            }
        } else {
            links_.resize(static_cast<std::size_t>(sp.chips));
            for (int s = 0; s < sp.chips; ++s)
                links_[static_cast<std::size_t>(s)].dstChip =
                    (s + 1) % sp.chips;
        }
    }
}

FabricSim::~FabricSim() = default;

void
FabricSim::sendOnLink(NetPacket *pkt, int srcChip, int dstChip)
{
    const FabricSpec &sp = spec();
    ChipLink &link = sp.links == LinkTopology::PointToPoint
        ? links_[static_cast<std::size_t>(srcChip * sp.chips + dstChip)]
        : links_[static_cast<std::size_t>(srcChip)];
    const Cycle due = std::max(
        now_ + static_cast<Cycle>(sp.linkDelay), link.nextFree);
    link.nextFree =
        due + static_cast<Cycle>((pkt->sizeFlits + sp.linkWidthFlits - 1) /
                                 sp.linkWidthFlits);
    link.inFlight.emplace_back(pkt, due);
    ++linkHops_;
}

void
FabricSim::enterColumn(NetPacket *pkt)
{
    pkt->state = PacketState::Queued;
    pkt->queuedCycle = now_;
    pkt->dst = pkt->finalDst;
    net().injector(pkt->flow).enqueue(pkt);
}

void
FabricSim::processLinkArrivals()
{
    for (ChipLink &link : links_) {
        while (!link.inFlight.empty() &&
               link.inFlight.front().second <= now_) {
            NetPacket *pkt = link.inFlight.front().first;
            link.inFlight.pop_front();
            const int want = network().chipOfNode(pkt->finalDst);
            if (want != link.dstChip) {
                // Ring transit: pay another hop toward the destination
                // (due > now, so the next link won't re-pop it this
                // cycle).
                sendOnLink(pkt, link.dstChip, want);
                continue;
            }
            enterColumn(pkt);
        }
    }
}

void
FabricSim::tickTerminals()
{
    processLinkArrivals();
    NetSim::tickTerminals();
}

void
FabricSim::handoff(NetPacket *pkt, InputPort *port, int vcIdx)
{
    TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                 "handoff for packet in state %d",
                 static_cast<int>(pkt->state));
    TAQOS_ASSERT(pkt->finalDst != kInvalidNode,
                 "handoff for packet without a final destination");

    pkt->removeLoc(port, vcIdx);
    port->vcs[static_cast<std::size_t>(vcIdx)].free(
        now_ + static_cast<Cycle>(port->creditDelay));
    if (trace_ != nullptr)
        trace_->segment(now_, *port, vcIdx, *pkt, pkt->finalDst);

    // The row traversal is completed service, not replayable work: a
    // later column preemption replays only the column segment.
    metrics_.usefulHops += pkt->hopsThisAttempt;

    // Release the row-segment window slot; the retransmission window is
    // claimed afresh at the column entrance.
    InjectorQueue &origin = network().sourceQueue(pkt->flow);
    TAQOS_ASSERT(pkt->inWindow, "handoff for packet outside row window");
    pkt->inWindow = false;
    --origin.outstanding;
    TAQOS_ASSERT(origin.outstanding >= 0, "row window underflow");
    // The freed row-window slot may unblock the origin node's queue.
    origin.noteWindowChange();
    ++handoffs_;

    const int destBlock = network().blockOfFlow(pkt->flow);
    if (network().blockOfNode(port->node) == destBlock) {
        enterColumn(pkt);
        return;
    }
    // Remote flow: cross the link fabric; the arrival performs the
    // entrance enqueue at the destination chip.
    const int here = network().chipOfNode(port->node);
    const int want =
        network().chipOfNode(network().blockBase(destBlock));
    TAQOS_ASSERT(here != want,
                 "cross-block handoff within one chip (flow %d)",
                 pkt->flow);
    sendOnLink(pkt, here, want);
}

void
FabricSim::saveExtra(CheckpointWriter &w) const
{
    w.u64(handoffs_);
    w.u64(linkHops_);
    saveInjectorQueues(w,
                       const_cast<FabricSim *>(this)->network().rowQueues());
    w.u32(static_cast<std::uint32_t>(links_.size()));
    for (const ChipLink &link : links_) {
        w.u64(link.nextFree);
        w.u32(static_cast<std::uint32_t>(link.inFlight.size()));
        for (const auto &[pkt, due] : link.inFlight) {
            w.pkt(pkt);
            w.u64(due);
        }
    }
}

void
FabricSim::restoreExtra(CheckpointReader &r)
{
    handoffs_ = r.u64();
    linkHops_ = r.u64();
    restoreInjectorQueues(r, network().rowQueues());
    if (r.u32() != links_.size())
        r.fail("inter-chip link count mismatch");
    for (ChipLink &link : links_) {
        link.nextFree = r.u64();
        const std::uint32_t len = r.u32();
        if (len > (1u << 24))
            r.fail("implausible link FIFO length");
        link.inFlight.clear();
        for (std::uint32_t i = 0; i < len; ++i) {
            NetPacket *pkt = r.pkt();
            const Cycle due = r.u64();
            if (pkt == nullptr)
                r.fail("null packet on an inter-chip link");
            link.inFlight.emplace_back(pkt, due);
        }
    }
}

void
FabricSim::checkInvariants() const
{
    NetSim::checkInvariants();
    auto &net = const_cast<FabricSim *>(this)->network();
    for (const auto &q : net.rowQueues()) {
        if (q.flow == kInvalidFlow)
            continue; // terminal or inactive slot, unused
        TAQOS_ASSERT(q.outstanding >= 0 && q.outstanding <= q.windowLimit,
                     "row window counter out of bounds for flow %d",
                     q.flow);
    }
    for (const ChipLink &link : links_) {
        Cycle prev = 0;
        for (const auto &[pkt, due] : link.inFlight) {
            TAQOS_ASSERT(pkt->state == PacketState::InFlight,
                         "link-resident packet in state %d",
                         static_cast<int>(pkt->state));
            TAQOS_ASSERT(due >= prev, "link FIFO order violated");
            prev = due;
        }
    }
}

} // namespace taqos
