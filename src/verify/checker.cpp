#include "verify/checker.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_map>

namespace taqos {

namespace {

/// Adjacency family of a topology, derived from its recorded name only
/// (the checker re-implements the routing contract instead of calling
/// the builders).
enum class TopoFamily {
    Neighbor, ///< mesh xN / DPS: hops move one node, strictly toward dst
    Direct,   ///< MECS / flattened butterfly: one network hop to dst
    Unknown,  ///< adjacency unknown: only chain continuity is checked
};

TopoFamily
familyOf(const std::string &topology)
{
    if (topology.rfind("mesh", 0) == 0 || topology == "dps")
        return TopoFamily::Neighbor;
    if (topology == "mecs" || topology == "fbfly")
        return TopoFamily::Direct;
    return TopoFamily::Unknown;
}

/// Reconstructed per-packet state.
enum class PktPhase {
    InFlight,
    Dropped,   ///< preempted, awaiting retransmission
    Staged,    ///< completed a segment, awaiting re-injection (handoff)
    Delivered,
    Retired,
};

struct PktState {
    FlowId flow = kInvalidFlow;
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::int32_t size = 0;
    std::int32_t attempt = 0;
    Cycle gen = 0;
    std::uint64_t frameTag = kTraceNoTag;
    PktPhase phase = PktPhase::InFlight;
    std::int32_t curNode = -1;
    Cycle lastInject = 0;
    Cycle lastTerm = 0; ///< kill/deliver cycle of the previous attempt
};

/// One transmission attempt of a flow (PVC service reconstruction).
struct Attempt {
    Cycle inject = 0;
    Cycle term = kNoCycle; ///< kill or delivery cycle; kNoCycle = live
    std::int32_t size = 0;
};

struct VcHold {
    PacketId pkt = kInvalidPacket;
    bool draining = false;
};

class Checker {
  public:
    Checker(const FlitTrace &trace, const CheckOptions &opts)
        : trace_(trace), meta_(trace.meta),
          sumW_(trace.meta.sumWeights()), opts_(opts),
          family_(familyOf(trace.meta.topology))
    {
    }

    CheckReport run();

  private:
    void add(const std::string &cls, const TraceEvent &e,
             const std::string &message)
    {
        if (report_.violations.size() >= opts_.maxViolations)
            return;
        Violation v;
        v.cls = cls;
        v.cycle = e.cycle;
        v.pkt = e.pkt;
        v.node = e.node;
        v.port = e.port;
        v.vc = e.vc;
        v.message = message;
        report_.violations.push_back(std::move(v));
    }

    void addEnd(const std::string &cls, PacketId pkt,
                const std::string &message)
    {
        if (report_.violations.size() >= opts_.maxViolations)
            return;
        Violation v;
        v.cls = cls;
        v.cycle = meta_.endCycle;
        v.pkt = pkt;
        v.message = message;
        report_.violations.push_back(std::move(v));
    }

    bool portValid(std::int32_t id) const
    {
        return id >= 0 && static_cast<std::size_t>(id) < trace_.ports.size();
    }
    const TracePortInfo &port(std::int32_t id) const
    {
        return trace_.ports[static_cast<std::size_t>(id)];
    }

    void onInject(const TraceEvent &e);
    void onVcReserve(const TraceEvent &e);
    void onVcDrain(const TraceEvent &e);
    void onVcFree(const TraceEvent &e);
    void onHop(const TraceEvent &e);
    void onKill(const TraceEvent &e);
    void onRequeue(const TraceEvent &e);
    void onDeliver(const TraceEvent &e);
    void onRetire(const TraceEvent &e);
    void onSegment(const TraceEvent &e);
    void finishChecks();

    // --- QoS audits ---
    void auditGsfInject(const TraceEvent &e, PktState &p);
    void auditPvcKill(const TraceEvent &e, const PktState &p);
    void auditWrr();

    /// Conservative upper bound on any router's per-flow in-frame
    /// bandwidth counter for `flow` at time `t`: the flits of every
    /// attempt injected by `t` that was still live at (or after) the
    /// frame boundary preceding `t`. Charges earlier than the boundary
    /// were flushed; refunded (killed-before-boundary) attempts are out.
    std::uint64_t aliveFlits(FlowId flow, Cycle t) const;

    std::uint64_t quotaCap(FlowId flow) const
    {
        if (sumW_ == 0)
            return 0;
        const std::uint64_t quota =
            meta_.frameLen * meta_.weightOf(flow) / sumW_;
        return static_cast<std::uint64_t>(
            meta_.quotaProtect * static_cast<double>(quota));
    }

    std::uint64_t gsfBudget(FlowId flow) const
    {
        if (sumW_ == 0)
            return 1;
        return std::max<std::uint64_t>(
            1, meta_.gsfFrameLen * meta_.weightOf(flow) / sumW_);
    }

    const FlitTrace &trace_;
    const TraceMeta &meta_;
    /// The trace's total weight, summed once: the quota and GSF-budget
    /// audits divide by it on every audited event.
    const std::uint64_t sumW_;
    CheckOptions opts_;
    TopoFamily family_;
    CheckReport report_;

    std::unordered_map<PacketId, PktState> pkts_;
    /// (port, vc) -> current holder. Keyed per port; VC indices are
    /// sparse-safe (per-flow queueing grows VCs on demand).
    std::vector<std::map<std::int32_t, VcHold>> vcs_;

    // PVC service reconstruction.
    std::vector<std::vector<Attempt>> attempts_; ///< per flow
    std::unordered_map<PacketId, std::size_t> liveAttempt_;

    // GSF reconstruction.
    std::unordered_map<std::uint64_t, std::uint64_t> gsfCum_;
    std::vector<std::uint64_t> gsfLastTag_;
    std::map<std::uint64_t, std::uint64_t> gsfInFlight_; ///< tag -> count
    bool gsfOn_ = false;
    bool pvcOn_ = false;
    bool wrrOn_ = false;

    // WRR reconstruction.
    std::vector<std::vector<std::pair<Cycle, Cycle>>> backlog_;
    std::vector<std::uint64_t> wrrFlits_;

    std::uint64_t gsfKey(FlowId flow, std::uint64_t tag) const
    {
        return (static_cast<std::uint64_t>(flow) << 40) ^ tag;
    }
};

void
Checker::onInject(const TraceEvent &e)
{
    if (e.flow < 0 || (meta_.flows > 0 && e.flow >= meta_.flows)) {
        add("conservation", e, "injection with out-of-range flow id");
        return;
    }
    auto it = pkts_.find(e.pkt);
    if (it == pkts_.end()) {
        if (e.attempt != 1)
            add("conservation", e, "first injection is not attempt 1");
        PktState p;
        p.flow = e.flow;
        p.src = e.src;
        p.dst = e.dst;
        p.size = e.size;
        p.attempt = e.attempt;
        p.gen = e.gen;
        p.frameTag = e.frameTag;
        p.phase = PktPhase::InFlight;
        p.curNode = e.node;
        p.lastInject = e.cycle;
        if (wrrOn_)
            backlog_[static_cast<std::size_t>(e.flow)].emplace_back(
                e.gen, e.cycle);
        it = pkts_.emplace(e.pkt, std::move(p)).first;
    } else {
        PktState &p = it->second;
        if (p.phase == PktPhase::InFlight) {
            add("conservation", e, "re-injected while still in flight");
        } else if (p.phase == PktPhase::Delivered ||
                   p.phase == PktPhase::Retired) {
            add("conservation", e,
                "re-injected after delivery (duplication)");
        }
        if (p.flow != e.flow || p.src != e.src || p.dst != e.dst ||
            p.size != e.size) {
            add("conservation", e,
                "retransmission changed the packet's identity");
        }
        if (e.attempt != p.attempt + 1)
            add("conservation", e, "attempt number did not increment");
        if (wrrOn_ && (p.phase == PktPhase::Dropped ||
                       p.phase == PktPhase::Staged)) {
            backlog_[static_cast<std::size_t>(p.flow)].emplace_back(
                p.lastTerm, e.cycle);
        }
        p.attempt = e.attempt;
        p.frameTag = e.frameTag;
        p.phase = PktPhase::InFlight;
        p.curNode = e.node;
        p.lastInject = e.cycle;
    }
    PktState &p = it->second;

    if (pvcOn_) {
        auto &list = attempts_[static_cast<std::size_t>(p.flow)];
        liveAttempt_[e.pkt] = list.size();
        list.push_back(Attempt{e.cycle, kNoCycle, e.size});
    }
    if (gsfOn_ && opts_.qosAudit && e.attempt == 1)
        auditGsfInject(e, p);
}

void
Checker::auditGsfInject(const TraceEvent &e, PktState &p)
{
    if (e.frameTag == kTraceNoTag)
        return; // never admitted by the gate — not a frame-budget subject
    const std::uint64_t budget = gsfBudget(p.flow);
    std::uint64_t &cum = gsfCum_[gsfKey(p.flow, e.frameTag)];
    if (cum >= budget) {
        std::ostringstream os;
        os << "flow " << p.flow << " admitted into frame " << e.frameTag
           << " with " << cum << " flits already charged (budget "
           << budget << ")";
        add("gsf-frame", e, os.str());
    }
    cum += static_cast<std::uint64_t>(e.size);

    std::uint64_t &last = gsfLastTag_[static_cast<std::size_t>(p.flow)];
    if (last != kTraceNoTag && e.frameTag < last)
        add("gsf-frame", e, "frame tag regressed for this flow");
    if (last == kTraceNoTag || e.frameTag > last)
        last = e.frameTag;

    if (!gsfInFlight_.empty() && meta_.gsfFrames > 0) {
        const std::uint64_t oldest = gsfInFlight_.begin()->first;
        if (e.frameTag > oldest &&
            e.frameTag - oldest >=
                static_cast<std::uint64_t>(meta_.gsfFrames)) {
            std::ostringstream os;
            os << "frame " << e.frameTag
               << " admitted while frame " << oldest
               << " is still in flight (window " << meta_.gsfFrames << ")";
            add("gsf-frame", e, os.str());
        }
    }
    ++gsfInFlight_[e.frameTag];
}

void
Checker::onVcReserve(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "reservation on unknown port");
        return;
    }
    auto &hold = vcs_[static_cast<std::size_t>(e.port)];
    auto it = hold.find(e.vc);
    if (it != hold.end()) {
        std::ostringstream os;
        os << "VC reserved while holding packet " << it->second.pkt;
        add("vc-exclusivity", e, os.str());
    }
    hold[e.vc] = VcHold{e.pkt, false};

    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "VC reserved for a never-injected packet");
        return;
    }
    if (pit->second.phase != PktPhase::InFlight)
        add("conservation", e, "VC reserved for a packet not in flight");
    if (e.tail < e.head ||
        e.tail - e.head + 1 != static_cast<Cycle>(pit->second.size)) {
        add("conservation", e,
            "reservation span does not match the packet's flit count");
    }
}

void
Checker::onVcDrain(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "drain on unknown port");
        return;
    }
    auto &hold = vcs_[static_cast<std::size_t>(e.port)];
    auto it = hold.find(e.vc);
    if (it == hold.end() || it->second.pkt != e.pkt) {
        add("vc-exclusivity", e, "drain of a VC not held by this packet");
        return;
    }
    if (it->second.draining)
        add("vc-exclusivity", e, "VC drained twice");
    it->second.draining = true;
}

void
Checker::onVcFree(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "free of unknown port");
        return;
    }
    auto &hold = vcs_[static_cast<std::size_t>(e.port)];
    auto it = hold.find(e.vc);
    if (it == hold.end() || it->second.pkt != e.pkt) {
        add("vc-exclusivity", e, "free of a VC not held by this packet");
        return;
    }
    hold.erase(it);
}

void
Checker::onHop(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "hop into unknown port");
        return;
    }
    const TracePortInfo &down = port(e.port);
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "hop by a never-injected packet");
        return;
    }
    PktState &p = pit->second;
    if (p.phase != PktPhase::InFlight)
        add("conservation", e, "hop by a packet not in flight");

    auto &hold = vcs_[static_cast<std::size_t>(e.port)];
    auto hit = hold.find(e.vc);
    if (hit == hold.end() || hit->second.pkt != e.pkt)
        add("vc-exclusivity", e, "hop into a VC not reserved for it");

    if (p.curNode != e.node) {
        std::ostringstream os;
        os << "hop departs node " << e.node << " but the packet is at node "
           << p.curNode;
        add("route", e, os.str());
    }

    if (down.terminal) {
        if (down.node != p.dst) {
            std::ostringstream os;
            os << "ejected at terminal of node " << down.node
               << " but destination is " << p.dst;
            add("route", e, os.str());
        }
    } else {
        switch (family_) {
          case TopoFamily::Neighbor: {
            const std::int32_t step = std::abs(down.node - e.node);
            const std::int32_t before = std::abs(p.dst - e.node);
            const std::int32_t after = std::abs(p.dst - down.node);
            if (step != 1 || after >= before) {
                std::ostringstream os;
                os << "illegal hop " << e.node << " -> " << down.node
                   << " toward destination " << p.dst;
                add("route", e, os.str());
            }
            break;
          }
          case TopoFamily::Direct:
            if (down.node != p.dst) {
                std::ostringstream os;
                os << "express hop lands at node " << down.node
                   << " instead of destination " << p.dst;
                add("route", e, os.str());
            }
            break;
          case TopoFamily::Unknown:
            break;
        }
    }
    p.curNode = down.node;
}

void
Checker::onKill(const TraceEvent &e)
{
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "kill of a never-injected packet");
        return;
    }
    PktState &p = pit->second;
    if (p.phase != PktPhase::InFlight) {
        add("conservation", e, "kill of a packet not in flight");
        return;
    }
    if (pvcOn_ && opts_.qosAudit)
        auditPvcKill(e, p);
    p.phase = PktPhase::Dropped;
    p.lastTerm = e.cycle;
    if (pvcOn_) {
        auto ait = liveAttempt_.find(e.pkt);
        if (ait != liveAttempt_.end()) {
            attempts_[static_cast<std::size_t>(p.flow)][ait->second].term =
                e.cycle;
            liveAttempt_.erase(ait);
        }
    }
}

std::uint64_t
Checker::aliveFlits(FlowId flow, Cycle t) const
{
    const Cycle frameStart =
        meta_.frameLen == 0 ? 0 : t - t % meta_.frameLen;
    std::uint64_t flits = 0;
    for (const Attempt &a : attempts_[static_cast<std::size_t>(flow)]) {
        if (a.inject > t)
            break; // attempts are in injection order
        if (a.term != kNoCycle && a.term < frameStart)
            continue;
        flits += static_cast<std::uint64_t>(a.size);
    }
    return flits;
}

void
Checker::auditPvcKill(const TraceEvent &e, const PktState &p)
{
    if (!meta_.quotaEnabled || meta_.frameLen == 0)
        return;
    const std::uint64_t cap = quotaCap(p.flow);
    // Sound two-sided bound: the engine may judge protection from a local
    // bandwidth counter at the killing router (state at the kill cycle)
    // or from the compliance stamp computed at the victim's injection.
    // Both counters are bounded above by aliveFlits at their respective
    // instants, so if BOTH bounds are inside the cap, every legal path
    // saw a protected flow and the kill violated the reserved quota.
    const std::uint64_t atKill = aliveFlits(p.flow, e.cycle);
    const std::uint64_t atInject = aliveFlits(p.flow, p.lastInject);
    if (atKill <= cap && atInject <= cap) {
        std::ostringstream os;
        os << "flow " << p.flow << " preempted inside its reserved quota ("
           << atKill << " flits alive this frame, protected cap " << cap
           << ")";
        add("pvc-quota", e, os.str());
    }
}

void
Checker::onRequeue(const TraceEvent &e)
{
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "requeue of a never-injected packet");
        return;
    }
    if (pit->second.phase != PktPhase::Dropped)
        add("conservation", e, "requeue of a packet that was not preempted");
}

void
Checker::onDeliver(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "delivery at unknown port");
        return;
    }
    const TracePortInfo &at = port(e.port);
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "delivery of a never-injected packet");
        return;
    }
    PktState &p = pit->second;
    if (p.phase == PktPhase::Delivered || p.phase == PktPhase::Retired) {
        add("conservation", e, "packet delivered twice (duplication)");
        return;
    }
    if (p.phase != PktPhase::InFlight)
        add("conservation", e, "delivery of a packet not in flight");
    if (!at.terminal)
        add("route", e, "delivery at a non-terminal port");
    else if (at.node != p.dst) {
        std::ostringstream os;
        os << "delivered at node " << at.node << " but destination is "
           << p.dst;
        add("route", e, os.str());
    }
    auto &hold = vcs_[static_cast<std::size_t>(e.port)];
    auto hit = hold.find(e.vc);
    if (hit == hold.end() || hit->second.pkt != e.pkt)
        add("vc-exclusivity", e, "delivery from a VC it does not hold");

    p.phase = PktPhase::Delivered;
    p.lastTerm = e.cycle;
    if (pvcOn_) {
        auto ait = liveAttempt_.find(e.pkt);
        if (ait != liveAttempt_.end()) {
            attempts_[static_cast<std::size_t>(p.flow)][ait->second].term =
                e.cycle;
            liveAttempt_.erase(ait);
        }
    }
    if (gsfOn_ && p.frameTag != kTraceNoTag) {
        auto git = gsfInFlight_.find(p.frameTag);
        if (git != gsfInFlight_.end() && --git->second == 0)
            gsfInFlight_.erase(git);
    }
    if (opts_.qosAudit && meta_.maxAge > 0 && e.cycle > p.gen &&
        e.cycle - p.gen > meta_.maxAge) {
        std::ostringstream os;
        os << "delivered " << e.cycle - p.gen
           << " cycles after generation (bound " << meta_.maxAge << ")";
        add("age-bound", e, os.str());
    }
    if (wrrOn_ && e.cycle >= meta_.measureStart &&
        e.cycle < meta_.measureEnd) {
        wrrFlits_[static_cast<std::size_t>(p.flow)] +=
            static_cast<std::uint64_t>(p.size);
    }
}

void
Checker::onRetire(const TraceEvent &e)
{
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "retirement of a never-injected packet");
        return;
    }
    if (pit->second.phase != PktPhase::Delivered)
        add("conservation", e, "retirement of an undelivered packet");
    pit->second.phase = PktPhase::Retired;
}

void
Checker::onSegment(const TraceEvent &e)
{
    if (!portValid(e.port)) {
        add("route", e, "segment handoff at unknown port");
        return;
    }
    const TracePortInfo &at = port(e.port);
    auto pit = pkts_.find(e.pkt);
    if (pit == pkts_.end()) {
        add("conservation", e, "segment handoff of a never-injected packet");
        return;
    }
    PktState &p = pit->second;
    if (p.phase != PktPhase::InFlight) {
        add("conservation", e, "segment handoff of a packet not in flight");
        return;
    }
    if (at.terminal)
        add("route", e, "segment handoff at a terminal ejection port");
    if (e.dst == p.dst) {
        add("route", e,
            "segment handoff without a destination change (no-op segment)");
    }
    // The segment boundary ends this attempt's service; the packet sits
    // in a source queue until it is re-injected toward the new
    // destination (attempt + 1).
    p.phase = PktPhase::Staged;
    p.lastTerm = e.cycle;
    p.dst = e.dst;
    p.curNode = at.node;
    if (pvcOn_) {
        auto ait = liveAttempt_.find(e.pkt);
        if (ait != liveAttempt_.end()) {
            attempts_[static_cast<std::size_t>(p.flow)][ait->second].term =
                e.cycle;
            liveAttempt_.erase(ait);
        }
    }
    if (gsfOn_ && p.frameTag != kTraceNoTag) {
        auto git = gsfInFlight_.find(p.frameTag);
        if (git != gsfInFlight_.end() && --git->second == 0)
            gsfInFlight_.erase(git);
    }
}

void
Checker::auditWrr()
{
    if (meta_.measureEnd <= meta_.measureStart)
        return;

    // Flows whose source queues were provably non-empty across the whole
    // measurement window (their queued intervals, reconstructed from
    // generation/injection/requeue times, cover it).
    std::vector<FlowId> backlogged;
    for (FlowId f = 0; f < meta_.flows; ++f) {
        auto ivals = backlog_[static_cast<std::size_t>(f)];
        std::sort(ivals.begin(), ivals.end());
        Cycle covered = meta_.measureStart;
        for (const auto &[b, e] : ivals) {
            if (b > covered)
                break;
            covered = std::max(covered, e);
            if (covered >= meta_.measureEnd)
                break;
        }
        if (covered >= meta_.measureEnd)
            backlogged.push_back(f);
    }
    if (backlogged.size() < 2)
        return; // shares are only meaningful under contention

    std::uint64_t total = 0;
    std::uint64_t sumW = 0;
    for (FlowId f : backlogged) {
        total += wrrFlits_[static_cast<std::size_t>(f)];
        sumW += meta_.weightOf(f);
    }
    if (total == 0 || sumW == 0)
        return;
    for (FlowId f : backlogged) {
        const double expect = static_cast<double>(total) *
                              static_cast<double>(meta_.weightOf(f)) /
                              static_cast<double>(sumW);
        if (expect < 16.0)
            continue; // below statistical significance
        const double got =
            static_cast<double>(wrrFlits_[static_cast<std::size_t>(f)]);
        if (got < (1.0 - meta_.wrrTol) * expect) {
            std::ostringstream os;
            os << "backlogged flow " << f << " delivered " << got
               << " flits in the measurement window, expected at least "
               << (1.0 - meta_.wrrTol) * expect << " (weight share "
               << expect << ")";
            Violation v;
            v.cls = "wrr-weight";
            v.cycle = meta_.measureEnd;
            v.message = os.str();
            if (report_.violations.size() < opts_.maxViolations)
                report_.violations.push_back(std::move(v));
        }
    }
}

void
Checker::finishChecks()
{
    if (meta_.drained) {
        for (const auto &[id, p] : pkts_) {
            if (p.phase == PktPhase::InFlight ||
                p.phase == PktPhase::Dropped ||
                p.phase == PktPhase::Staged) {
                addEnd("conservation", id,
                       "run claims to have drained but this packet was "
                       "injected and never delivered (lost)");
            }
        }
        for (std::size_t port = 0; port < vcs_.size(); ++port) {
            if (!vcs_[port].empty()) {
                addEnd("conservation", vcs_[port].begin()->second.pkt,
                       "VC still occupied at the end of a drained run");
            }
        }
    }
    if (opts_.qosAudit && meta_.maxAge > 0) {
        for (const auto &[id, p] : pkts_) {
            if (p.phase == PktPhase::Delivered ||
                p.phase == PktPhase::Retired) {
                continue;
            }
            if (meta_.endCycle > p.gen &&
                meta_.endCycle - p.gen > meta_.maxAge) {
                addEnd("age-bound", id,
                       "packet still undelivered past the worst-case age "
                       "bound (starvation)");
            }
        }
    }
    if (opts_.qosAudit && wrrOn_)
        auditWrr();
}

CheckReport
Checker::run()
{
    vcs_.resize(trace_.ports.size());
    const std::size_t flows =
        meta_.flows > 0 ? static_cast<std::size_t>(meta_.flows) : 0;
    pvcOn_ = meta_.mode == "pvc" && flows > 0;
    gsfOn_ = meta_.mode == "gsf" && flows > 0 && meta_.gsfFrameLen > 0;
    wrrOn_ = opts_.qosAudit && meta_.mode == "wrr" && flows > 0;
    if (pvcOn_)
        attempts_.resize(flows);
    if (gsfOn_)
        gsfLastTag_.assign(flows, kTraceNoTag);
    if (wrrOn_) {
        backlog_.resize(flows);
        wrrFlits_.assign(flows, 0);
    }

    // Port-table sanity: ids must match their position (the recorder
    // assigns them densely; a corrupt header must not crash the replay).
    for (std::size_t i = 0; i < trace_.ports.size(); ++i) {
        if (trace_.ports[i].id != static_cast<std::int32_t>(i)) {
            Violation v;
            v.cls = "route";
            v.port = trace_.ports[i].id;
            v.message = "port table ids are not dense/ordered";
            report_.violations.push_back(std::move(v));
            return report_;
        }
    }

    Cycle last = 0;
    for (const TraceEvent &e : trace_.events) {
        ++report_.eventsChecked;
        if (e.cycle < last) {
            std::ostringstream os;
            os << "event cycle went backwards (" << last << " -> "
               << e.cycle << ")";
            add("timestamp", e, os.str());
        } else {
            last = e.cycle;
        }
        switch (e.kind) {
          case TraceEventKind::Inject: onInject(e); break;
          case TraceEventKind::VcReserve: onVcReserve(e); break;
          case TraceEventKind::VcDrain: onVcDrain(e); break;
          case TraceEventKind::VcFree: onVcFree(e); break;
          case TraceEventKind::Hop: onHop(e); break;
          case TraceEventKind::Kill: onKill(e); break;
          case TraceEventKind::Requeue: onRequeue(e); break;
          case TraceEventKind::Deliver: onDeliver(e); break;
          case TraceEventKind::Retire: onRetire(e); break;
          case TraceEventKind::Segment: onSegment(e); break;
        }
        if (report_.violations.size() >= opts_.maxViolations)
            break;
    }
    finishChecks();
    return report_;
}

} // namespace

std::string
formatViolation(const Violation &v)
{
    std::ostringstream os;
    os << "cycle " << v.cycle << " [" << v.cls << "]";
    if (v.pkt != kInvalidPacket)
        os << " pkt " << v.pkt;
    if (v.node >= 0)
        os << " node " << v.node;
    if (v.port >= 0)
        os << " port " << v.port;
    if (v.vc >= 0)
        os << " vc " << v.vc;
    os << ": " << v.message;
    return os.str();
}

bool
CheckReport::has(const std::string &cls) const
{
    for (const Violation &v : violations) {
        if (v.cls == cls)
            return true;
    }
    return false;
}

std::string
CheckReport::firstDiagnostic() const
{
    return violations.empty() ? std::string()
                              : formatViolation(violations.front());
}

CheckReport
verifyTrace(const FlitTrace &trace, const CheckOptions &opts)
{
    return Checker(trace, opts).run();
}

FileCheckResult
verifyTraceFile(const std::string &path, const CheckOptions &opts)
{
    FileCheckResult res;
    FlitTrace trace;
    res.parseOk = loadFlitTrace(path, trace, res.parseError);
    if (!res.parseOk)
        return res;
    res.report = verifyTrace(trace, opts);
    return res;
}

} // namespace taqos
