#include "sim/chip_sim.h"

#include "common/assert.h"
#include "noc/trace_sink.h"
#include "sim/checkpoint.h"

namespace taqos {

ChipTrafficSource::ChipTrafficSource(ChipNetwork &net,
                                     const TrafficConfig &traffic)
    : net_(net), traffic_(traffic), gen_(net.cfg(), traffic),
      scratch_(static_cast<std::size_t>(net.cfg().numFlows()))
{
}

ChipTrafficSource::ChipTrafficSource(ChipNetwork &net,
                                     const TrafficConfig &traffic,
                                     const WorkloadSpec &workload)
    : net_(net), traffic_(traffic), gen_(net.cfg(), traffic, workload),
      scratch_(static_cast<std::size_t>(net.cfg().numFlows()))
{
    TAQOS_ASSERT(workload.kind != WorkloadKind::Trace,
                 "trace replay is a column workload; the chip has no "
                 "embedding for it");
}

void
ChipTrafficSource::tick(Cycle now, PacketPool &pool,
                        std::vector<InjectorQueue> &injectors,
                        SimMetrics &metrics)
{
    if (!net_.injectAtSources()) {
        gen_.tick(now, pool, injectors, metrics);
        return;
    }

    gen_.tick(now, pool, scratch_, metrics);
    const int perNode = net_.cfg().injectorsPerNode;
    for (const FlowId f : gen_.emitted()) {
        const auto idx = static_cast<std::size_t>(f);
        NetPacket *pkt = scratch_[idx].dequeue();
        // Terminal flows originate at the column node itself; row
        // flows at their compute node.
        const bool terminal = f % perNode == 0;
        InjectorQueue &origin =
            terminal ? injectors[idx] : net_.sourceQueue(pkt->flow);
        if (origin.queue().size() >= traffic_.maxQueueDepth) {
            // Bounded memory far past saturation: undo the generator's
            // accounting, as its own suppression would.
            ++suppressed_;
            --metrics.generatedPackets;
            metrics.generatedFlits -=
                static_cast<std::uint64_t>(pkt->sizeFlits);
            if (pkt->measured)
                --metrics.measuredGenerated;
            pool.release(pkt);
            continue;
        }
        if (!terminal) {
            // Row segment first: route to the column-entry node.
            pkt->finalDst = pkt->dst;
            pkt->dst = net_.columnNodeId(net_.cfg().nodeOfFlow(pkt->flow));
        }
        origin.enqueue(pkt);
    }
}

std::vector<std::uint64_t>
ChipTrafficSource::packState() const
{
    const std::vector<std::uint64_t> g = gen_.packState();
    std::vector<std::uint64_t> w;
    w.reserve(g.size() + 2);
    w.push_back(g.size());
    w.insert(w.end(), g.begin(), g.end());
    w.push_back(suppressed_);
    return w;
}

void
ChipTrafficSource::unpackState(const std::vector<std::uint64_t> &words)
{
    TAQOS_ASSERT(!words.empty(), "chip traffic-source state empty");
    const std::size_t genLen = static_cast<std::size_t>(words[0]);
    TAQOS_ASSERT(words.size() == genLen + 2,
                 "chip traffic-source state size mismatch");
    gen_.unpackState(
        std::vector<std::uint64_t>(words.begin() + 1,
                                   words.begin() + 1 +
                                       static_cast<std::ptrdiff_t>(genLen)));
    suppressed_ = words.back();
}

ChipSim::ChipSim(const ChipNetConfig &cfg, const TrafficConfig &traffic)
    : NetSim(ChipNetwork::build(cfg))
{
    auto src = std::make_unique<ChipTrafficSource>(network(), traffic);
    src_ = src.get();
    setTrafficSource(std::move(src));
}

ChipSim::ChipSim(const ChipNetConfig &cfg, const TrafficConfig &traffic,
                 const WorkloadSpec &workload)
    : NetSim(ChipNetwork::build(cfg))
{
    auto src = std::make_unique<ChipTrafficSource>(network(), traffic,
                                                   workload);
    src_ = src.get();
    setTrafficSource(std::move(src));
}

ChipSim::~ChipSim() = default;

void
ChipSim::handoff(NetPacket *pkt, InputPort *port, int vcIdx)
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

    // Release the row-segment window slot; the PVC retransmission window
    // is claimed afresh at the column entrance.
    InjectorQueue &origin = network().sourceQueue(pkt->flow);
    TAQOS_ASSERT(pkt->inWindow, "handoff for packet outside row window");
    pkt->inWindow = false;
    --origin.outstanding;
    TAQOS_ASSERT(origin.outstanding >= 0, "row window underflow");
    // The freed row-window slot may unblock the compute node's queue.
    origin.noteWindowChange();

    pkt->state = PacketState::Queued;
    pkt->queuedCycle = now_;
    pkt->dst = pkt->finalDst;
    net().injector(pkt->flow).enqueue(pkt);
    ++handoffs_;
}

void
ChipSim::saveExtra(CheckpointWriter &w) const
{
    w.u64(handoffs_);
    saveInjectorQueues(w, const_cast<ChipSim *>(this)->network().rowQueues());
}

void
ChipSim::restoreExtra(CheckpointReader &r)
{
    handoffs_ = r.u64();
    restoreInjectorQueues(r, network().rowQueues());
}

void
ChipSim::checkInvariants() const
{
    NetSim::checkInvariants();
    auto &net = const_cast<ChipSim *>(this)->network();
    for (const auto &q : net.rowQueues()) {
        if (q.flow == kInvalidFlow)
            continue; // terminal-flow slot, unused
        TAQOS_ASSERT(q.outstanding >= 0 && q.outstanding <= q.windowLimit,
                     "row window counter out of bounds for flow %d",
                     q.flow);
    }
}

} // namespace taqos
