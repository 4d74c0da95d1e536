/// \file router.h
/// A shared-region router with pluggable quality-of-service arbitration.
///
/// One Router class covers all five evaluated configurations; the topology
/// builder (src/topo) instantiates the port structure that makes it a mesh
/// xN, MECS, or DPS router. DPS intermediate "repeaters" are modelled as
/// extra pass-through input ports with a 1-cycle pipeline and no crossbar
/// group — the 2:1 mux of Figure 2(c).
///
/// The router owns the *mechanism* — VC allocation, cut-through transfer
/// management, preemption teardown — and delegates every *policy* question
/// (candidate priority, comparator, preemption decision) to the QosPolicy
/// its mode selects (qos/policy.h).
///
/// Per-cycle operation:
///   1. Transfer completions (tail departures free source VCs): every
///      output under the always-tick engine, the due entries of the
///      engine's completion calendar under the activity-driven one.
///   2. Virtual-channel allocation per output port: the highest-priority
///      eligible packet gets a downstream VC and starts streaming
///      (virtual cut-through: the whole packet follows, crossbar
///      arbitration is subsumed by the allocation).
///   3. On allocation failure, the policy may preempt (PVC): if a
///      buffered lower-priority non-rate-compliant packet is blocking the
///      requester (priority inversion), it is discarded, NACKed to its
///      source, and replayed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bitset.h"
#include "common/types.h"
#include "noc/activity.h"
#include "noc/metrics.h"
#include "noc/packet.h"
#include "noc/ports.h"
#include "qos/ack_network.h"
#include "qos/flow_table.h"
#include "qos/policy.h"
#include "qos/pvc.h"

namespace taqos {

/// Per-destination routing decision at this router.
struct RouteEntry {
    int outPort = -1;     ///< first of `numParallel` equivalent outputs
    int numParallel = 1;  ///< replicated mesh channels to spread across
    int dropIdx = 0;      ///< drop on the chosen output (MECS express span)
};

/// Shared services handed to routers each cycle.
struct TickContext {
    Cycle now = 0;
    QuotaTracker *quota = nullptr;
    AckNetwork *ack = nullptr;
    SimMetrics *metrics = nullptr;
    /// Source-side policy gate (GSF frame budgets); null for policies
    /// without an injection gate.
    SourceGate *gate = nullptr;
    /// Legacy always-tick engine: rescan candidates every cycle and take
    /// no activity shortcuts (the bit-identity reference the activity-
    /// driven engine is checked against).
    bool forceScan = false;
    /// Sharded engine's parallel scan phase: recompute cached winners
    /// without any side effect outside this router. A scan that would
    /// have to consult impure gate state (SourceGate::admit can charge a
    /// GSF budget) aborts instead, leaving the output dirty for the
    /// serial grant phase to rescan.
    bool speculative = false;
};

/// The per-router counters and schedule bounds the engine consults every
/// cycle before deciding whether the router can be skipped. One inline
/// copy per router (standalone fixtures); Network::packHotState re-binds
/// a fabric's routers onto one contiguous node-ordered array so the
/// engine's sweep/merge walk stays on a few cache lines.
struct alignas(64) RouterHot {
    int occupiedVcs = 0;
    int queuedPkts = 0;
    int activeXfers = 0;
    /// Lower bound on the earliest in-flight transfer completion
    /// (kNoCycle when none): completion ticks before it are exact no-ops.
    Cycle nextCompletion = kNoCycle;
};

class Router {
  public:
    Router(NodeId node, QosMode mode, const PvcParams &params);

    NodeId node() const { return node_; }
    QosMode mode() const { return policy_->mode(); }
    const QosPolicy &policy() const { return *policy_; }

    // --- construction (used by the topology builders) ---
    InputPort *addInputPort(std::unique_ptr<InputPort> port);
    OutputPort *addOutputPort(std::unique_ptr<OutputPort> port);
    XbarGroup *addXbarGroup();
    void setRoute(NodeId dest, RouteEntry entry);
    /// Must be called once all output ports exist (sizes the flow table).
    void finalize();

    const std::vector<std::unique_ptr<InputPort>> &inputs() const
    {
        return inputs_;
    }
    const std::vector<std::unique_ptr<OutputPort>> &outputs() const
    {
        return outputs_;
    }
    OutputPort *output(int idx) { return outputs_[static_cast<std::size_t>(idx)].get(); }
    const FlowTable &flowTable() const { return flowTable_; }
    /// Mutable access for checkpoint restore (counter overwrite).
    FlowTable &flowTable() { return flowTable_; }
    const std::vector<std::unique_ptr<XbarGroup>> &groups() const
    {
        return groups_;
    }
    std::vector<std::unique_ptr<XbarGroup>> &groups() { return groups_; }
    /// Mutable policy access for checkpoint pack/unpack.
    QosPolicy &policyState() { return *policy_; }

    /// Routing decision for a packet sitting at this router.
    RouteEntry routeFor(const NetPacket &pkt) const;

    /// One simulation cycle, phase 1: retire transfers whose tail has
    /// departed. Must run on ALL routers before any arbitration so that a
    /// packet's completion is visible regardless of router tick order.
    void tickCompletions(Cycle now);

    /// One simulation cycle, phase 2: VC allocation / preemption.
    void tickArbitrate(TickContext &ctx);

    /// Sharded engine, parallel phase: refresh this router's cached
    /// winner sets (the scan half of tickArbitrate) touching nothing
    /// outside the router. ctx.speculative must be set. Outputs whose
    /// scan would need an impure gate admission stay dirty; everything
    /// else ends up exactly as a serial tickArbitrate would leave it
    /// before its grant loop, so the subsequent serial grant phase takes
    /// the cached-winner fast path.
    void tickScan(TickContext &ctx);

    /// Both phases (single-router unit tests only).
    void tick(TickContext &ctx);

    /// PVC frame boundary: flush bandwidth counters.
    void frameFlush();

    /// Discard a packet (preemption): tears down its VC chain and
    /// in-flight transfers, NACKs the source. Public so tests can inject
    /// failures directly.
    void killPacket(NetPacket *victim, TickContext &ctx);

    /// Attach (or detach, with nullptr) a flit-trace recorder: registers
    /// every input port with the sink and points the router's and ports'
    /// hooks at it. Wired fabric-wide by Network::setTraceSink.
    void setTraceSink(TraceSink *sink);

    // --- activity tracking (the activity-driven engine) ---------------
    //
    // Two layers. (1) Engine worklist: the engine ticks only routers on
    // the shared worklist; a router re-arms itself when an event gives it
    // work. (2) Per-output candidate cache: each output keeps the list of
    // arbitration slots currently routed to it — a Reserved VC, or an
    // injector queue's head packet — maintained incrementally by the port
    // hooks, plus a dirty flag and a time-driven wake. An output's
    // candidate scan reruns only when an event dirtied its inputs or a
    // scheduled eligibility (head arrival + pipeline, injection
    // readiness) has come due; everything else re-attempts the cached
    // winner, which is exactly what the always-tick engine would
    // recompute. A new slot only schedules a wake at its eligibility (it
    // cannot win before then); removals and grants dirty. All scans of a
    // cycle run before any grant, mirroring the legacy collect-then-grant
    // phases. See README "Performance".

    /// Register with the engine worklist (arms the router immediately).
    void setWorklist(ActivityWorklist *wl);
    /// Sharded engine: point future arms at a per-region worklist without
    /// touching the membership flag (the caller moves pending entries).
    void rebindWorklist(ActivityWorklist *wl) { worklist_ = wl; }
    bool inWorklist() const { return inWorklist_; }
    /// The worklist (and completion calendar) this router arms onto.
    const ActivityWorklist *worklist() const { return worklist_; }
    /// Engine sweep: drop an idle router from the worklist.
    void leaveWorklist() { inWorklist_ = false; }

    /// Any work at all: an occupied VC (even one still arriving), a
    /// queued source packet (even a gated one), or an in-flight transfer.
    /// A router with none is a provable no-op and is skipped entirely.
    bool hasWork() const
    {
        return hot_->occupiedVcs + hot_->queuedPkts + hot_->activeXfers > 0;
    }

    /// Re-home the hot counters onto `hot` (the network's contiguous
    /// per-router array), carrying the current values over.
    void bindHot(RouterHot *hot) { hot_ = new (hot) RouterHot(*hot_); }
    /// Allocate all future arbitration-slot storage from `arena` and move
    /// the current lists there.
    void bindSlotArena(BumpArena *arena)
    {
        for (auto &list : slots_)
            list.rebind(arena);
    }

    /// Policy state changed behind every output's back (frame flush, GSF
    /// window advance): invalidate all cached winner sets.
    void markArbDirty();

    /// Checkpoint restore: the raw overwrites (VC states, injector
    /// queues, transfers) bypassed every incremental hook, so recompute
    /// all derived activity state from the restored structural state —
    /// hot counters, arbitration slot lists, cached winners, dirty
    /// flags, wakes, preemption memos. Leaves every output dirty with
    /// wake 0 and the router off the worklist (the engine re-arms it);
    /// the first tick then does the same full rescan a frame-boundary
    /// invalidation would, which is proven bit-identical.
    void rebuildFromRestore();

    /// Checkpoint restore, after the worklists are rebound: file every
    /// restored in-flight transfer on this router's completion calendar.
    void fileActiveTransfers();

    /// Activity-state self-check at the cycle boundary before `now`:
    /// every clean output holding a slot that is not yet eligible has a
    /// wake at or before that slot's eligibility, the router-level
    /// summary wake is no later than any output's, and an output's
    /// winner bit is set exactly when its cached best holds a packet.
    void checkWakes(Cycle now) const;

    // Hooks from the port layer (see ports.h). Work-creating events arm
    // the router onto the worklist; work-neutral events only dirty the
    // affected outputs (the `hasWork() implies inWorklist()` invariant
    // makes that sound).
    void noteVcReserved(InputPort *in, int vcIdx);
    void noteVcFreed(InputPort *in, VirtualChannel &vc);
    void noteVcDrained(InputPort *in, VirtualChannel &vc);
    void noteInjectorEnqueue(InjectorQueue &inj, bool headChanged);
    void noteInjectorDequeue(InjectorQueue &inj);
    void noteInjectorWindowChange(InjectorQueue &inj);
    /// `out` began streaming: count it and file its completion.
    void noteXferStarted(OutputPort &out);
    void noteXferEnded(); ///< transfer completed or cancelled
    /// Flow-table mutation at table `tableIdx` (-1 = all tables): the
    /// virtual-clock priorities of every output charging that table are
    /// stale. Replicated mesh channels share one table, so one charge can
    /// dirty several outputs.
    void noteTableMutated(int tableIdx);

    int occupiedVcCount() const { return hot_->occupiedVcs; }
    int queuedPacketCount() const { return hot_->queuedPkts; }
    int activeXferCount() const { return hot_->activeXfers; }

  private:
    struct Candidate {
        NetPacket *pkt = nullptr;
        InputPort *port = nullptr;
        int vc = -1;               ///< -1 when from an injector queue
        InjectorQueue *inj = nullptr;
        std::uint64_t prio = 0;
        Cycle age = 0;
        std::uint32_t rrKey = 0; ///< round-robin position for NoQos
        int outPort = -1;
        int dropIdx = 0;
    };

    /// One cached arbitration slot: a Reserved VC (vc >= 0) or an
    /// injector queue's head packet (inj != nullptr), routed to the
    /// output whose list holds it.
    struct ArbSlot {
        InputPort *port = nullptr;
        int vc = -1;
        InjectorQueue *inj = nullptr;
        std::uint32_t key = 0; ///< static enumeration position (rrKey)
        int dropIdx = 0;
    };

    /// Legacy full scan: every input, every VC, every injector, all
    /// outputs at once (the always-tick reference path).
    void collectCandidates(TickContext &ctx);
    /// Activity path: re-derive one output's winner from its slot list.
    /// Returns false when a speculative scan had to abort on an impure
    /// gate admission (the output must stay dirty; best is cleared).
    bool collectOutput(int outPort, TickContext &ctx);
    /// Rescan, in ascending order, every dirty output and (once
    /// minWake_ has come due) every output whose wake has; shared by
    /// tickArbitrate and tickScan.
    void scanOutputs(TickContext &ctx);

    void addVcSlot(InputPort *in, int vcIdx);
    void updateInjectorSlot(InjectorQueue &inj);
    /// Add `slot` to `outPort`'s list; it cannot compete before
    /// `eligibleAt`, so the cached winner stays exact until then and the
    /// output is woken instead of dirtied.
    void insertSlot(int outPort, const ArbSlot &slot, Cycle eligibleAt);
    void removeVcSlot(int outPort, const InputPort *in, int vcIdx);
    /// File `out`'s in-flight transfer on the worklist's calendar.
    void fileCompletion(OutputPort &out);
    void removeInjectorSlot(int outPort, const InjectorQueue *inj);
    void dirtyOutput(int outPort)
    {
        dirtyOuts_.set(static_cast<std::size_t>(outPort));
        ++mutEpoch_;
    }
    void wakeOutput(int outPort, Cycle at)
    {
        Cycle &wake = outWake_[static_cast<std::size_t>(outPort)];
        if (at < wake)
            wake = at;
        if (at < minWake_)
            minWake_ = at;
        ++mutEpoch_; // the victim search sees the new slot
    }
    /// Earliest cycle `slot` can be an arbitration candidate by time
    /// alone (head arrival + pipeline, or injection readiness).
    Cycle slotEligibleAt(const ArbSlot &slot) const;

    bool betterThan(const Candidate &a, const Candidate &b, int outPort) const;
    void tryGrant(Candidate &cand, TickContext &ctx);
    bool tryPreempt(const Candidate &cand, InputPort *down, TickContext &ctx);
    /// Is `pkt` shielded from preemption by the reserved per-frame quota?
    bool quotaProtected(const NetPacket &pkt, bool localState,
                        int tableIdx) const;
    std::uint64_t priorityFor(const NetPacket &pkt, const InputPort &in,
                              int outPort) const;
    bool validate(const Candidate &cand) const;

    NodeId node_;
    const PvcParams *params_;
    /// Flit-trace recorder (null = not recording): injection grants,
    /// hop starts and preemption kills are emitted from this router.
    TraceSink *trace_ = nullptr;
    /// Every priority / preemption / quota decision (owns the per-router
    /// arbitration state, e.g. the NoQos rotating pointers).
    std::unique_ptr<QosPolicy> policy_;

    std::vector<std::unique_ptr<InputPort>> inputs_;
    std::vector<std::unique_ptr<OutputPort>> outputs_;
    std::vector<std::unique_ptr<XbarGroup>> groups_;
    std::vector<RouteEntry> routes_;
    FlowTable flowTable_;

    /// Best candidate per output; cached between cycles and re-derived
    /// only when the output is dirty or its wake has come due.
    std::vector<Candidate> best_;

    /// Per-output cached candidate state. `slots_[o]` is kept sorted by
    /// enumeration key, so a scan visits candidates in exactly the order
    /// the legacy input-major scan would. `outWake_[o]` is the earliest
    /// cycle a currently-ineligible slot matures by time alone (kNoCycle
    /// = none pending); it starts at 0 so the first tick scans.
    std::vector<ArenaVec<ArbSlot>> slots_;
    std::vector<Cycle> outWake_;
    /// tableIdx -> outputs charging it (replicated channels share).
    std::vector<std::vector<int>> tableOuts_;

    /// Outputs an event invalidated since their last scan (set by
    /// dirtyOutput and markArbDirty, cleared by the scan).
    Bitset dirtyOuts_;
    /// Outputs whose best_ holds a cached winner; written only by
    /// collectOutput and restore. The grant loop visits just these.
    /// (The always-tick path rescans everything and reads neither set.)
    Bitset winnerOuts_;
    /// Lower bound on every outWake_ entry: before it no output can come
    /// due, so a tick with no dirty output skips the wake pass.
    Cycle minWake_ = 0;

    /// Mutation epoch: bumped by every state change the preemption victim
    /// search can observe on this router's side (slot changes, table
    /// charges, frame flushes). A victimless search whose inputs —
    /// requester, its priority, this epoch, and the contested downstream
    /// port's epoch — are unchanged must fail again, so it is skipped.
    std::uint64_t mutEpoch_ = 0;

    /// Last victimless preemption search per output (activity mode).
    struct PreemptMemo {
        const NetPacket *pkt = nullptr;
        std::uint64_t prio = 0;
        const InputPort *down = nullptr;
        std::uint64_t selfEpoch = 0;
        std::uint64_t downEpoch = 0;
    };
    std::vector<PreemptMemo> preemptMemo_;

    ActivityWorklist *worklist_ = nullptr;
    bool inWorklist_ = false;
    RouterHot localHot_;
    RouterHot *hot_ = &localHot_;

    void arm();
};

} // namespace taqos
