/// \file net_sim.h
/// The topology-agnostic cycle-level simulation engine. Drives any
/// Network (topo/network.h) from any TrafficSource (traffic/source.h);
/// ColumnSim and ChipSim are thin specializations.
///
/// Per-cycle phase order (dependences are cut by explicit delays, so the
/// order within a cycle only has to be internally consistent):
///   1. Policy frame boundary: advance the source gate's frame window
///      (GSF) and flush flow tables / quota counters (PVC).
///   2. ACK network delivery: completed packets retire and free their
///      window slot; NACKed packets re-enter their source queue.
///   3. Traffic generation into the source queues.
///   4. Router ticks: transfer completions, then VC allocation /
///      preemption per output.
///   5. Terminal ejection: packets whose tail has arrived are delivered.
///
/// By default the engine is *activity-driven*: every per-cycle sweep is
/// replaced by a schedule of due work (noc/activity.h):
///   - phase 4's completions drain the calendar bucket of this cycle —
///     exactly the transfers whose tail departs now, in (node, output)
///     order;
///   - arbitration visits only the routers on the shared worklist (those
///     holding an occupied VC, a queued source packet, or an in-flight
///     transfer — see Router::hasWork), and within a ticked router the
///     candidate scan reruns only when an event invalidated the cached
///     winner set or a scheduled eligibility came due;
///   - phase 5 polls only the terminal and handoff buffers on the
///     ejection list (those holding a packet).
/// All of it is exact — skipped work is provably a no-op — so the engine
/// is bit-identical to the always-tick reference
/// (EngineConfig::activityDriven = false), which the golden-digest and
/// toggle-equivalence tests pin. Phases 1-3 always run: time-driven
/// policy state (the GSF frame window) must advance even when every
/// router is idle.
///
/// EngineConfig::shards = N splits phase 4 across N threads while
/// staying bit-identical to the serial engines. The fabric is
/// partitioned into N contiguous node-range regions (sim/shard_plan.h),
/// each with a private worklist, and the cycle is restructured into:
///   - a serial prelude (phases 1-3, unchanged);
///   - one parallel dispatch per region: sweep and merge the region's
///     worklist, drain the region's completion calendar (mutations are
///     router-local by construction), then run the
///     *speculative* candidate scan (Router::tickScan) — a read-only
///     rebuild of each router's cached winner set that defers any
///     impure decision (an unstamped GSF admission) to the next phase;
///   - a serial grant phase: tickArbitrate over every region's active
///     list in region order, which — regions being contiguous and
///     ascending — is exactly the serial engine's node order. Grants,
///     preemptions and gate charges happen only here, so every
///     cross-router effect is ordered as in the serial engine;
///   - serial terminal ejection (phase 5, unchanged).
/// When the live-router count is too small for the dispatch to pay for
/// itself the same schedule runs inline (a state-derived, deterministic
/// choice). With a trace sink attached, completions run serially so the
/// recorded flit stream is byte-identical to the serial engines'.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "noc/metrics.h"
#include "noc/packet.h"
#include "qos/ack_network.h"
#include "qos/policy.h"
#include "qos/pvc.h"
#include "sim/sim_config.h"
#include "topo/network.h"
#include "traffic/source.h"

namespace taqos {

class ShardPool;
class CheckpointWriter;
class CheckpointReader;

class NetSim {
  public:
    explicit NetSim(std::unique_ptr<Network> net);
    virtual ~NetSim();
    NetSim(const NetSim &) = delete;
    NetSim &operator=(const NetSim &) = delete;

    /// Advance one cycle.
    void step();

    /// Advance `cycles` cycles.
    void run(Cycle cycles);

    /// Run until every generated packet has been delivered and retired, or
    /// `maxCycles` elapse. Returns the cycle at which the network drained
    /// (kNoCycle on budget exhaustion). Meaningful once generation has a
    /// horizon (TrafficConfig::genUntil); drain checks begin at
    /// `earliestDone` (pass the generation horizon, so a quiet early cycle
    /// is not mistaken for completion).
    Cycle runUntilDrained(Cycle maxCycles, Cycle earliestDone = 0);

    /// True when no packet is live (queued, in flight, or awaiting ACK).
    bool drained() const { return pool_.liveCount() == 0; }

    /// Apply the engine selection (activity-driven vs. always-tick,
    /// shard count, dispatch threshold) in one call. Must precede the
    /// first step, except that `shardMinActive` alone may be re-tuned
    /// mid-run (it only gates the dispatch heuristic, never results).
    void configure(const EngineConfig &cfg);
    const EngineConfig &engineConfig() const { return engineCfg_; }

    bool activityDriven() const { return engineCfg_.activityDriven; }
    int shards() const { return engineCfg_.shards; }

    /// Open the measurement window [start, end): latency is recorded for
    /// packets generated inside it, per-flow throughput for deliveries
    /// inside it. Call before the window opens.
    void setMeasureWindow(Cycle start, Cycle end);

    /// Attach (or detach, with nullptr) a flit-trace recorder: wires the
    /// fabric's port/router hooks (Network::setTraceSink) and the
    /// engine-side events (delivery, NACK requeue, ACK retirement). The
    /// recorded stream feeds the independent checker in src/verify.
    void attachTraceSink(TraceSink *sink);

    Cycle now() const { return now_; }
    SimMetrics &metrics() { return metrics_; }
    const SimMetrics &metrics() const { return metrics_; }
    Network &net() { return *net_; }
    const Network &net() const { return *net_; }
    PacketPool &pool() { return pool_; }

    /// Serialize the complete live state at the current cycle boundary
    /// (see sim/checkpoint.h for the format and the engine-neutrality
    /// contract). Call between steps, never mid-cycle.
    void saveCheckpoint(std::ostream &os) const;

    /// Restore a snapshot onto this simulation, which must be freshly
    /// built from the identical spec (same topology, policy, traffic
    /// configuration and trace attachment) and never stepped. Returns
    /// false — with a section- and offset-diagnosed message in `err` —
    /// on a version/salt/fingerprint mismatch or a truncated/corrupted
    /// stream; header mismatches leave the sim untouched, but a failure
    /// past the header leaves it partially overwritten and unusable.
    /// After success the run continues bit-identically to the original.
    bool restoreCheckpoint(std::istream &is, std::string *err = nullptr);

    /// Structural self-check: every occupied VC's packet holds a matching
    /// location record, occupancy chains are acyclic, and window counters
    /// are within bounds. Used by tests after every scenario.
    virtual void checkInvariants() const;

  protected:
    /// Install the per-cycle traffic source (call before the first step).
    void setTrafficSource(std::unique_ptr<TrafficSource> source);

    /// Subclass state riding in the checkpoint's "extra" section (chip
    /// handoff buffers, fabric link queues). Overrides must write and
    /// read exactly matching records; restoreExtra reports corruption by
    /// calling CheckpointReader::fail.
    virtual void saveExtra(CheckpointWriter &w) const;
    virtual void restoreExtra(CheckpointReader &r);

    void processFrameBoundary();
    void processAcks();
    /// Phase 5: deliver every tail-arrived packet at a terminal buffer
    /// and hand off every one at an aux buffer (terminals by node id,
    /// then aux ports in creation order). Subclasses may extend it with
    /// serial ejection-side work (the fabric's link arrivals).
    virtual void tickTerminals();
    void deliver(NetPacket *pkt, InputPort *port, int vcIdx);
    /// A packet's tail arrived at aux buffer `port` (the chip's and the
    /// fabric's row-to-column handoffs): move it on. Networks with aux
    /// ports must override; the base has none.
    virtual void handoff(NetPacket *pkt, InputPort *port, int vcIdx);

    std::unique_ptr<Network> net_;
    std::unique_ptr<TrafficSource> source_;
    std::unique_ptr<QuotaTracker> quota_; ///< null unless PVC
    std::unique_ptr<SourceGate> gate_;    ///< null unless the policy gates
    AckNetwork ack_;
    PacketPool pool_;
    SimMetrics metrics_;
    Cycle now_ = 0;
    EngineConfig engineCfg_;
    TraceSink *trace_ = nullptr; ///< flit-trace recorder (null = off)

  private:
    /// One contiguous node range [begin, end) with its private activity
    /// tracking; the engine owns one per shard.
    struct Region {
        NodeId begin = 0;
        NodeId end = 0;
        ActivityWorklist wl;         ///< arms raised by this region's nodes
        std::vector<NodeId> active;  ///< sorted ids with work, in-range
    };

    /// Drop routers whose work drained from a sorted active list (the
    /// arms are folded in by mergeArms, in node order — the relative
    /// order the always-tick engine visits).
    void sweepIdle(std::vector<NodeId> &active);
    /// Complete the transfers `cal` holds for this cycle.
    void completeTransfers(CompletionCalendar &cal);
    /// Phase 5 for one buffer: eject every tail-arrived packet.
    void ejectFrom(InputPort *port, bool aux);
    /// Checkpoint restore: rebuild the completion calendars and the
    /// ejection list from the restored transfers and VCs.
    void rebuildSchedules();

    /// The sharded cycle (see file comment); step() delegates here when
    /// configure() set shards > 1 and partitioned the fabric.
    void stepSharded();
    /// A region's parallel slice of the cycle: sweep + merge its
    /// worklist, completions, then the speculative scan.
    void regionPhase(Region &reg, TickContext &scanCtx);

    std::vector<NodeId> active_; ///< sorted ids of routers with work
    std::vector<Region> regions_;
    std::unique_ptr<ShardPool> shardPool_;
};

} // namespace taqos
