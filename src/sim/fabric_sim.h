/// \file fabric_sim.h
/// Whole-chip and multi-chip simulation: the NetSim engine driving a
/// FabricNetwork (topo/fabric.h) — every shared column of every chip
/// active, with inter-chip links joining the chips — so the
/// consolidated-server scenario runs cycle-accurately from one chip with
/// one QOS column (the paper's machine) up to 1000+ routers.
///
/// A packet's journey:
///   1. generated into its origin compute node's aggregate source queue
///      (terminal flows start at their block's entrance queue directly);
///   2. row segment: NoQos row mesh to the origin chip's block-entry
///      node (`dst` = that entry node, `finalDst` = the real
///      destination);
///   3. handoff: the boundary buffer releases the row window slot, then
///      either re-queues the packet into its column-entrance injector
///      queue (local flow) or pushes it onto the inter-chip link toward
///      the destination chip (remote flow), where the arrival performs
///      the same entrance enqueue;
///   4. column segment at the destination block: normal QOS
///      arbitration, preemption, ACK/NACK — identical to the
///      standalone column simulator.
/// Inter-chip links are FIFO delay lines with serialization (width
/// flits/cycle); on a ring, packets hop chip to chip, paying the link
/// delay per hop. Terminal flows skip steps 2-3, so a one-chip,
/// one-column fabric driven by terminal flows only is cycle-identical
/// to ColumnSim (pinned by tests).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/net_sim.h"
#include "topo/fabric.h"
#include "traffic/generator.h"

namespace taqos {

/// Generates every block's column-flow traffic and injects it at the
/// owning origin: the block entrance for terminal flows, the catchment
/// compute node for local row flows, the remote chip's designated
/// compute node for cross-chip flows. One deterministic generator per
/// block (block 0 keeps the seed unchanged, so a one-block fabric's
/// stream is byte-identical to a ColumnSim's on the same config).
class FabricTrafficSource : public TrafficSource {
  public:
    FabricTrafficSource(FabricNetwork &net, const TrafficConfig &traffic);
    /// Generate under a dynamic workload: bursty/ramp specs modulate
    /// every block generator (each block's modulator streams derive from
    /// its own decorrelated seed). Trace/churn have no fabric embedding.
    FabricTrafficSource(FabricNetwork &net, const TrafficConfig &traffic,
                        const WorkloadSpec &workload);

    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    /// Packets whose generation was skipped due to a full origin queue.
    std::uint64_t suppressed() const;

    /// Block `block`'s generator (block-local flow ids); ChurnDriver
    /// reprograms block 0's compute flows through it.
    TrafficGenerator &generator(int block)
    {
        return *gens_[static_cast<std::size_t>(block)];
    }

    /// Checkpointing: each block generator's state (length-prefixed per
    /// block) plus the dispatch-side suppression counter. The scratch
    /// queues drain within each tick, so they carry no cross-cycle state.
    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

  private:
    FabricNetwork &net_;
    TrafficConfig traffic_;
    std::vector<std::unique_ptr<TrafficGenerator>> gens_; ///< per block
    /// Staging queues (one block's local flows) the generators fill
    /// before packets are dispatched to their origin queues. Dispatch
    /// visits only the flows the block's generator emitted this tick.
    std::vector<InjectorQueue> scratch_;
    std::uint64_t suppressed_ = 0;
};

class FabricSim : public NetSim {
  public:
    FabricSim(const FabricSpec &spec, const TrafficConfig &traffic);
    FabricSim(const FabricSpec &spec, const TrafficConfig &traffic,
              const WorkloadSpec &workload);
    ~FabricSim() override;

    FabricNetwork &network() { return static_cast<FabricNetwork &>(*net_); }
    const FabricNetwork &network() const
    {
        return static_cast<const FabricNetwork &>(*net_);
    }
    const FabricSpec &spec() const { return network().spec(); }
    FabricTrafficSource &traffic() { return *src_; }

    /// Packets that crossed a row-to-column boundary handoff so far.
    std::uint64_t handoffs() const { return handoffs_; }
    /// Inter-chip link traversals so far (a ring transit counts each hop).
    std::uint64_t linkHops() const { return linkHops_; }

    void checkInvariants() const override;

  protected:
    /// Link arrivals first, then the base ejection phase.
    void tickTerminals() override;
    /// Boundary handoff of a packet whose tail reached its row's
    /// handoff buffer: into the local column, or onto the link fabric.
    void handoff(NetPacket *pkt, InputPort *port, int vcIdx) override;
    /// Checkpoint "extra" section: the handoff/link counters, the
    /// compute-node source queues, and every inter-chip link's occupancy
    /// horizon and in-flight FIFO.
    void saveExtra(CheckpointWriter &w) const override;
    void restoreExtra(CheckpointReader &r) override;

  private:
    /// One inter-chip channel: a FIFO delay line with serialization
    /// (`nextFree` models the width-limited occupancy).
    struct ChipLink {
        int dstChip = 0;
        Cycle nextFree = 0;
        std::deque<std::pair<NetPacket *, Cycle>> inFlight; ///< (pkt, due)
    };

    void sendOnLink(NetPacket *pkt, int srcChip, int dstChip);
    /// Serial, top of phase 5: pop due link packets in fixed link order
    /// and enqueue them into their destination-block entrance queues
    /// (ring transits re-enter the next link instead).
    void processLinkArrivals();
    /// Entrance enqueue shared by local handoffs and link arrivals.
    void enterColumn(NetPacket *pkt);

    FabricTrafficSource *src_ = nullptr; ///< owned by NetSim::source_
    /// Point-to-point: links_[src * chips + dst] (diagonal unused).
    /// Ring: links_[c] is chip c's channel to (c + 1) % chips.
    std::vector<ChipLink> links_;
    std::uint64_t handoffs_ = 0;
    std::uint64_t linkHops_ = 0;
};

} // namespace taqos
