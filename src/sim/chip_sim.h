/// \file chip_sim.h
/// Whole-chip cycle-level simulation: the NetSim engine driving a
/// ChipNetwork, so the paper's headline scenario — VMs on compute nodes
/// sharing one QOS-protected column — runs cycle-accurately end to end.
///
/// A packet's journey in full-chip mode:
///   1. generated into its compute node's aggregate source queue,
///   2. row segment: NoQos row mesh to the row's column-entry node
///      (`dst` = entry node, `finalDst` = the real destination row),
///   3. handoff: the boundary buffer releases the row window slot and
///      re-queues the packet into its column-entrance injector queue,
///   4. column segment: normal PVC arbitration, preemption, ACK/NACK —
///      identical to the standalone column simulator.
/// In column-equivalence mode (ChipNetConfig::injectAtSources = false)
/// step 1 targets the entrance queues directly and the run is
/// cycle-identical to ColumnSim — the refactor's regression anchor.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/net_sim.h"
#include "topo/chip_network.h"
#include "traffic/generator.h"

namespace taqos {

/// Generates column-flow traffic and injects it at the owning compute
/// nodes (full-chip mode) or directly into the column entrance queues
/// (column-equivalence mode; byte-identical to ColumnSim's generator
/// stream).
class ChipTrafficSource : public TrafficSource {
  public:
    ChipTrafficSource(ChipNetwork &net, const TrafficConfig &traffic);
    /// Generate under a dynamic workload: bursty/ramp specs modulate the
    /// inner generator (steady and churn specs leave it plain — churn is
    /// driven from outside by ChurnDriver). Trace replay is a column
    /// workload; it has no chip embedding.
    ChipTrafficSource(ChipNetwork &net, const TrafficConfig &traffic,
                      const WorkloadSpec &workload);

    void tick(Cycle now, PacketPool &pool,
              std::vector<InjectorQueue> &injectors,
              SimMetrics &metrics) override;

    TrafficGenerator &generator() { return gen_; }

    /// Packets whose generation was skipped due to a full source queue
    /// (either by the inner generator or at a compute-node queue).
    std::uint64_t suppressed() const
    {
        return suppressed_ + gen_.suppressed();
    }

    /// Checkpointing: the inner generator's state (length-prefixed) plus
    /// the dispatch-side suppression counter. The scratch queues drain
    /// within each tick, so they carry no cross-cycle state.
    std::vector<std::uint64_t> packState() const override;
    void unpackState(const std::vector<std::uint64_t> &words) override;

  private:
    ChipNetwork &net_;
    TrafficConfig traffic_;
    TrafficGenerator gen_;
    /// Staging queues the generator fills before packets are dispatched
    /// to their origin (compute-node or column-entrance) queues.
    /// Dispatch visits only the flows the generator emitted this tick.
    std::vector<InjectorQueue> scratch_;
    std::uint64_t suppressed_ = 0;
};

class ChipSim : public NetSim {
  public:
    ChipSim(const ChipNetConfig &cfg, const TrafficConfig &traffic);
    ChipSim(const ChipNetConfig &cfg, const TrafficConfig &traffic,
            const WorkloadSpec &workload);
    ~ChipSim() override;

    ChipNetwork &network() { return static_cast<ChipNetwork &>(*net_); }
    const ChipNetwork &network() const
    {
        return static_cast<const ChipNetwork &>(*net_);
    }
    const ChipNetConfig &chipCfg() const { return network().chipCfg(); }
    const ColumnConfig &cfg() const { return network().cfg(); }
    ChipTrafficSource &traffic() { return *src_; }

    /// Packets that crossed a row-to-column handoff so far.
    std::uint64_t handoffs() const { return handoffs_; }

    void checkInvariants() const override;

  protected:
    /// Row-to-column handoff of a packet whose tail reached its
    /// boundary buffer.
    void handoff(NetPacket *pkt, InputPort *port, int vcIdx) override;
    /// Checkpoint "extra" section: the handoff counter and the
    /// compute-node source queues (the handoff buffers themselves are
    /// aux ports, covered by the base format).
    void saveExtra(CheckpointWriter &w) const override;
    void restoreExtra(CheckpointReader &r) override;

  private:
    ChipTrafficSource *src_ = nullptr; ///< owned by NetSim::source_
    std::uint64_t handoffs_ = 0;
};

} // namespace taqos
