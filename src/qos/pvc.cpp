#include "qos/pvc.h"

#include "common/assert.h"
#include "common/strings.h"

namespace taqos {

const char *
qosModeName(QosMode mode)
{
    switch (mode) {
      case QosMode::Pvc: return "pvc";
      case QosMode::PerFlowQueue: return "per-flow";
      case QosMode::NoQos: return "no-qos";
      case QosMode::Gsf: return "gsf";
      case QosMode::AgeArb: return "age";
      case QosMode::Wrr: return "wrr";
    }
    return "?";
}

std::optional<QosMode>
parseQosMode(const std::string &name)
{
    const std::string n = strLower(strTrim(name));
    if (n == "pvc")
        return QosMode::Pvc;
    if (n == "per-flow" || n == "pfq" || n == "perflow" ||
        n == "per_flow_queue") {
        return QosMode::PerFlowQueue;
    }
    if (n == "no-qos" || n == "noqos" || n == "none")
        return QosMode::NoQos;
    if (n == "gsf" || n == "frames")
        return QosMode::Gsf;
    if (n == "age" || n == "oldest-first" || n == "age-based")
        return QosMode::AgeArb;
    if (n == "wrr" || n == "weighted-rr")
        return QosMode::Wrr;
    return std::nullopt;
}

std::uint64_t
PvcParams::recountWeights() const
{
    if (weights.empty())
        return static_cast<std::uint64_t>(numFlows);
    std::uint64_t sum = 0;
    for (auto w : weights)
        sum += w;
    return sum;
}

QuotaTracker::QuotaTracker(const PvcParams &params)
    : params_(&params),
      injected_(static_cast<std::size_t>(params.numFlows), 0)
{
}

void
QuotaTracker::charge(FlowId flow, int flits)
{
    const auto idx = static_cast<std::size_t>(flow);
    TAQOS_ASSERT(idx < injected_.size(), "flow %d out of range", flow);
    injected_[idx] += static_cast<std::uint64_t>(flits);
}

void
QuotaTracker::flush()
{
    for (auto &v : injected_)
        v = 0;
}

std::uint64_t
QuotaTracker::injectedThisFrame(FlowId flow) const
{
    return injected_[static_cast<std::size_t>(flow)];
}

} // namespace taqos
