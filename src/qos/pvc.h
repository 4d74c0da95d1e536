/// \file pvc.h
/// Preemptive Virtual Clock (PVC) configuration and quota tracking.
///
/// PVC (Grot, Keckler, Mutlu — MICRO 2009) is the QOS mechanism the paper
/// deploys in the shared region. Routers keep per-flow bandwidth counters
/// that are flushed every frame; a packet's priority is its flow's counter
/// scaled by the flow's provisioned rate (lower = higher priority).
/// Priority inversion — a high-priority packet blocked by buffered
/// lower-priority packets — is resolved by preempting (discarding) a
/// victim, which is NACKed over a dedicated ACK network and retransmitted
/// from a per-source window.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace taqos {

/// Arbitration / QOS discipline of the shared-region routers. Each mode
/// selects a QosPolicy implementation (qos/policy.h).
enum class QosMode {
    Pvc,          ///< Preemptive Virtual Clock (the paper's scheme)
    PerFlowQueue, ///< per-flow queueing: preemption-free reference (Fig. 6)
    NoQos,        ///< round-robin, no flow state (starvation baseline)
    Gsf,          ///< Globally Synchronized Frames (Lee et al., ISCA 2008)
    AgeArb,       ///< oldest-packet-first (starvation-free baseline)
    Wrr,          ///< weighted round-robin over flows per output port
};

/// Every supported arbitration policy (sweeps, parameterized tests).
inline constexpr QosMode kAllQosModes[] = {
    QosMode::Pvc, QosMode::PerFlowQueue, QosMode::NoQos,
    QosMode::Gsf, QosMode::AgeArb,       QosMode::Wrr,
};

const char *qosModeName(QosMode mode);

/// Inverse of qosModeName (plus common aliases); nullopt when unknown.
/// Round-trip: parseQosMode(qosModeName(m)) == m for every mode.
std::optional<QosMode> parseQosMode(const std::string &name);

struct PvcParams {
    /// Counter flush interval. The paper uses a 50K-cycle frame.
    Cycle frameLen = 50000;

    /// Number of provisioned flows (64: 8 nodes x 8 injectors).
    int numFlows = 64;

    /// Per-flow provisioned service weights. Empty = all equal. The OS
    /// programs these through the chip's flow registers. A network that
    /// adopts these params caches their sum (adoptWeights); rewrite them
    /// mid-run only through Network::reprogramFlowWeights.
    std::vector<std::uint32_t> weights;

    /// Per-source outstanding-packet retransmission window.
    int windowLimit = 16;

    /// Reserve one VC per network port for rate-compliant traffic.
    bool reservedVcEnabled = true;

    /// Non-preemptable reserved quota: the first `weight/sumW * frameLen`
    /// flits a source injects in a frame cannot be discarded.
    bool quotaEnabled = true;

    /// Priority-inversion detection thresholds. A blocked packet preempts
    /// only after waiting `preemptWaitCycles` with no VC, and only victims
    /// whose scaled bandwidth counter exceeds the requester's by more than
    /// `preemptGapFlits` flits of service are discarded. Transient
    /// buffer-full conditions (a packet mid-ejection, a link busy for a
    /// few cycles) are not inversions.
    int preemptWaitCycles = 3;
    /// Victim protection margin: a flow is preemptable only once its local
    /// bandwidth counter exceeds `quotaProtectFactor x quota` — stochastic
    /// overshoot just past the reserved share is not hostile traffic.
    double quotaProtectFactor = 1.5;
    /// Separate (shorter) threshold before an ongoing lower-priority
    /// transfer is interrupted: transfers complete within a few cycles, so
    /// inversion against a streaming packet must be detected faster.
    int preemptXferWaitCycles = 2;
    std::uint64_t preemptGapFlits = 48;

    /// GSF (QosMode::Gsf): frame length in cycles and the number of
    /// frames a source may inject ahead into. Each flow's budget per
    /// frame is `weight/sumW * gsfFrameLen` flits; the window advances
    /// when the oldest frame drains (early reclamation) or times out.
    Cycle gsfFrameLen = 2000;
    int gsfFrames = 4;

    /// `preemptGapFlits` in scaled priority units.
    std::uint64_t preemptGapScaled() const
    {
        return preemptGapFlits * sumWeights();
    }

    /// Inline: the virtual-clock priority of every candidate at every
    /// scan reads these, so they sit on the arbitration hot path.
    std::uint32_t weightOf(FlowId flow) const
    {
        if (weights.empty())
            return 1;
        TAQOS_ASSERT(flow >= 0 &&
                         flow < static_cast<FlowId>(weights.size()),
                     "flow %d out of range", flow);
        return weights[static_cast<std::size_t>(flow)];
    }

    /// ΣW, the total provisioned weight. O(1) once adoptWeights() has
    /// cached it — every network-owned copy, which is the one the
    /// arbitration, quota and GSF-budget hot paths read. A params value
    /// that no network adopted (a config under construction, a unit-test
    /// fixture) recounts.
    std::uint64_t sumWeights() const
    {
        return sumW_ != 0 ? sumW_ : recountWeights();
    }

    /// ΣW counted afresh from `weights` (the invariant check compares
    /// it against the cached sum).
    std::uint64_t recountWeights() const;

    /// Cache ΣW. Called where a network takes over its flow registers:
    /// Network construction and Network::reprogramFlowWeights.
    void adoptWeights() { sumW_ = recountWeights(); }

    /// Reserved (non-preemptable) flits per frame for `flow`. Inline:
    /// every PVC injection attempt checks compliance against it.
    std::uint64_t quotaFlits(FlowId flow) const
    {
        if (!quotaEnabled)
            return 0;
        const std::uint64_t sum = sumWeights();
        TAQOS_ASSERT(sum > 0, "zero total weight");
        return frameLen * weightOf(flow) / sum;
    }

  private:
    std::uint64_t sumW_ = 0; ///< cached ΣW; 0 = not adopted
};

/// Source-side per-frame injection accounting, used to mark packets
/// rate-compliant at injection time.
class QuotaTracker {
  public:
    explicit QuotaTracker(const PvcParams &params);

    /// Would a packet of `flits` still fall under the reserved quota?
    /// Inline: checked on every PVC injection attempt.
    bool compliant(FlowId flow, int flits) const
    {
        if (!params_->quotaEnabled)
            return false;
        const auto idx = static_cast<std::size_t>(flow);
        TAQOS_ASSERT(idx < injected_.size(), "flow %d out of range", flow);
        return injected_[idx] + static_cast<std::uint64_t>(flits) <=
               params_->quotaFlits(flow);
    }

    /// Charge an injection (called per transmission attempt — replays
    /// consume bandwidth too).
    void charge(FlowId flow, int flits);

    /// Frame boundary: clear all counters.
    void flush();

    std::uint64_t injectedThisFrame(FlowId flow) const;

    /// Checkpoint access: the per-flow intra-frame injection counters.
    const std::vector<std::uint64_t> &injected() const { return injected_; }
    void restoreInjected(const std::vector<std::uint64_t> &injected)
    {
        TAQOS_ASSERT(injected.size() == injected_.size(),
                     "quota restore geometry mismatch");
        injected_ = injected;
    }

  private:
    const PvcParams *params_;
    std::vector<std::uint64_t> injected_;
};

} // namespace taqos
