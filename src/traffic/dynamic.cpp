#include "traffic/dynamic.h"

#include <fstream>
#include <sstream>

#include "common/assert.h"
#include "common/strings.h"
#include "traffic/generator.h"
#include "traffic/trace.h"

namespace taqos {
namespace {

/// splitmix64 finalizer: the same avalanche construction the sweep seed
/// chain and the cell cache use.
std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Salt separating the modulator master stream from the per-flow packet
/// streams (both derive from the same traffic seed).
constexpr std::uint64_t kModulatorSalt = 0x7a05'0b57'0000'0001ull;

/// Salt behind the deterministic trace-thinning hash. A fixed constant —
/// not a user seed — so a (trace, window, inflate) triple selects the
/// same entry subset on every machine and in every run.
constexpr std::uint64_t kThinningSalt = 0x7a05'1f1a'7e00'0001ull;

} // namespace

OnOffModulator::OnOffModulator(const WorkloadSpec &spec, int numFlows,
                               std::uint64_t seed)
    : spec_(spec)
{
    TAQOS_ASSERT(spec_.kind == WorkloadKind::Bursty,
                 "ON/OFF modulator needs a bursty workload, got %s",
                 workloadKindName(spec_.kind));
    Rng master(splitmix(seed ^ kModulatorSalt));
    rng_.reserve(static_cast<std::size_t>(numFlows));
    on_.reserve(static_cast<std::size_t>(numFlows));
    for (FlowId f = 0; f < numFlows; ++f) {
        rng_.push_back(master.split());
        // Start each chain in its stationary distribution so the burst
        // phases are decorrelated from cycle 0 (no synchronized onset).
        const double pOn = spec_.burstOn / (spec_.burstOn + spec_.burstOff);
        on_.push_back(rng_.back().nextDouble() < pOn ? 1 : 0);
    }
}

void
OnOffModulator::advance(Cycle now, const std::vector<FlowId> &live)
{
    (void)now;
    // One transition draw per live flow per cycle — a chain's draw count
    // is a pure function of the cycles its flow spent live, which keeps
    // restore and sharding bit-identical.
    for (const FlowId flow : live) {
        const auto f = static_cast<std::size_t>(flow);
        const double flip = on_[f] != 0 ? spec_.burstOff : spec_.burstOn;
        if (rng_[f].bernoulli(flip))
            on_[f] ^= 1;
    }
}

double
OnOffModulator::scaleOf(FlowId flow) const
{
    return on_[static_cast<std::size_t>(flow)] != 0 ? spec_.burstGain
                                                    : 0.0;
}

std::vector<std::uint64_t>
OnOffModulator::packState() const
{
    std::vector<std::uint64_t> w;
    const std::size_t flows = rng_.size();
    const std::size_t stateWords = (flows + 63) / 64;
    w.reserve(flows * 4 + stateWords);
    for (const Rng &rng : rng_) {
        const auto s = rng.state();
        w.insert(w.end(), s.begin(), s.end());
    }
    for (std::size_t word = 0; word < stateWords; ++word) {
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < 64 && word * 64 + b < flows; ++b) {
            if (on_[word * 64 + b] != 0)
                bits |= 1ull << b;
        }
        w.push_back(bits);
    }
    return w;
}

void
OnOffModulator::unpackState(const std::vector<std::uint64_t> &words)
{
    const std::size_t flows = rng_.size();
    const std::size_t stateWords = (flows + 63) / 64;
    TAQOS_ASSERT(words.size() == flows * 4 + stateWords,
                 "ON/OFF modulator restore geometry mismatch");
    std::size_t i = 0;
    for (Rng &rng : rng_) {
        rng.setState({words[i], words[i + 1], words[i + 2], words[i + 3]});
        i += 4;
    }
    for (std::size_t f = 0; f < flows; ++f)
        on_[f] = static_cast<std::uint8_t>(
            (words[i + f / 64] >> (f % 64)) & 1);
}

RampModulator::RampModulator(const WorkloadSpec &spec)
    : spec_(spec), scale_(spec.rampLow)
{
    TAQOS_ASSERT(spec_.kind == WorkloadKind::Ramp,
                 "ramp modulator needs a ramp workload, got %s",
                 workloadKindName(spec_.kind));
}

double
RampModulator::scaleAt(const WorkloadSpec &spec, Cycle now)
{
    const Cycle period = spec.rampPeriod;
    const Cycle phase = now % period;
    const Cycle half = period / 2;
    const double frac = phase <= half
        ? static_cast<double>(phase) / static_cast<double>(half)
        : static_cast<double>(period - phase) /
              static_cast<double>(period - half);
    return spec.rampLow + (spec.rampHigh - spec.rampLow) * frac;
}

void
RampModulator::advance(Cycle now, const std::vector<FlowId> &live)
{
    (void)live; // one global wave: nothing per flow to advance
    scale_ = scaleAt(spec_, now);
}

double
RampModulator::scaleOf(FlowId flow) const
{
    (void)flow;
    return scale_;
}

std::unique_ptr<RateModulator>
makeRateModulator(const WorkloadSpec &spec, int numFlows, std::uint64_t seed)
{
    switch (spec.kind) {
      case WorkloadKind::Bursty:
        return std::make_unique<OnOffModulator>(spec, numFlows, seed);
      case WorkloadKind::Ramp:
        return std::make_unique<RampModulator>(spec);
      case WorkloadKind::Steady:
      case WorkloadKind::Trace:
      case WorkloadKind::Churn:
        return nullptr;
    }
    TAQOS_UNREACHABLE("bad workload kind");
}

TrafficTrace
applyReplayWindow(const TrafficTrace &trace, const WorkloadSpec &spec)
{
    TAQOS_ASSERT(spec.kind == WorkloadKind::Trace,
                 "replay window needs a trace workload, got %s",
                 workloadKindName(spec.kind));
    std::vector<TraceEntry> kept;
    std::uint64_t idx = 0; ///< index within the windowed sequence
    for (const TraceEntry &e : trace.entries()) {
        if (e.cycle < spec.windowBegin)
            continue;
        if (e.cycle >= spec.windowEnd)
            break;
        const std::uint64_t i = idx++;
        if (spec.inflate < 1.0 &&
            Rng::doubleFromBits(splitmix(kThinningSalt ^ i)) >=
                spec.inflate) {
            continue;
        }
        TraceEntry w = e;
        w.cycle -= spec.windowBegin;
        kept.push_back(w);
    }
    return TrafficTrace(std::move(kept));
}

std::unique_ptr<TrafficTrace>
loadTraceFile(const std::string &path, std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err != nullptr)
            *err = path + ": cannot open trace file";
        return nullptr;
    }
    std::ostringstream os;
    os << is.rdbuf();
    std::string parseErr;
    auto trace = TrafficTrace::fromCsv(os.str(), &parseErr);
    if (!trace.has_value()) {
        if (err != nullptr)
            *err = path + ": " + parseErr;
        return nullptr;
    }
    return std::make_unique<TrafficTrace>(std::move(*trace));
}

std::unique_ptr<TrafficSource>
makeTrafficSource(const WorkloadSpec &spec, const ColumnConfig &col,
                  const TrafficConfig &traffic, std::string *err)
{
    switch (spec.kind) {
      case WorkloadKind::Steady:
      case WorkloadKind::Churn:
        // Churn reshapes a steady generator from outside (ChurnDriver
        // reprograms flows at frame boundaries); the source is plain.
        return std::make_unique<TrafficGenerator>(col, traffic);
      case WorkloadKind::Bursty:
      case WorkloadKind::Ramp:
        return std::make_unique<TrafficGenerator>(col, traffic, spec);
      case WorkloadKind::Trace: {
        auto trace = loadTraceFile(spec.tracePath, err);
        if (trace == nullptr)
            return nullptr;
        return std::make_unique<TraceReplayer>(col, std::move(*trace),
                                               spec);
      }
    }
    TAQOS_UNREACHABLE("bad workload kind");
}

} // namespace taqos
