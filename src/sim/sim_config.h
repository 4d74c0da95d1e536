/// \file sim_config.h
/// Run-phase parameters shared by the experiment runners: open-loop
/// measurements warm the network up, measure, then drain.
#pragma once

#include <string>
#include <utility>

#include "common/strings.h"
#include "common/types.h"

namespace taqos {

/// Longest run phase accepted (2^40 cycles, years of simulated time at
/// this engine's speed). Anything longer is a mistake — typically a
/// negative count wrapped by an unsigned cast, which the diagnosis
/// prints back as the negative number the user typed.
inline constexpr Cycle kMaxPhaseCycles = Cycle{1} << 40;

/// "" when `v` is a usable cycle count, else "<name>=<v>, want ...".
inline std::string
cycleCountProblem(const char *name, Cycle v)
{
    if (v <= kMaxPhaseCycles)
        return "";
    return strFormat("%s=%lld, want a cycle count in [0, 2^40]", name,
                     static_cast<long long>(v));
}

struct RunPhases {
    Cycle warmup = 20000;
    Cycle measure = 50000;
    Cycle drain = 30000;

    Cycle total() const { return warmup + measure + drain; }
    Cycle measureEnd() const { return warmup + measure; }

    /// "" for a runnable schedule, else one line naming the bad phase:
    /// every phase in [0, 2^40] cycles and a non-empty measure window.
    std::string validate() const
    {
        for (const auto &[name, v] : {std::pair{"warmup", warmup},
                                      std::pair{"measure", measure},
                                      std::pair{"drain", drain}}) {
            if (std::string bad = cycleCountProblem(name, v); !bad.empty())
                return bad;
        }
        if (measure == 0)
            return "measure=0, want >= 1 cycle";
        return "";
    }
};

/// Shorter phases for unit/integration tests.
inline RunPhases
testPhases()
{
    return RunPhases{2000, 6000, 4000};
}

/// Engine selection for a NetSim, applied in one NetSim::configure call
/// before the first step (only `shardMinActive` may be re-tuned mid-run).
struct EngineConfig {
    /// Activity-driven router phase (default) vs. the always-tick
    /// reference that visits every router every cycle. Bit-identical;
    /// the reference exists for equivalence tests and ablations.
    bool activityDriven = true;

    /// Threads sharding the router phase (1 = serial). Bit-identical to
    /// the serial engine under either activityDriven setting.
    int shards = 1;

    /// Minimum live routers per shard before a cycle is dispatched to
    /// the thread pool rather than run inline (0 forces the parallel
    /// path every cycle — equivalence tests use it to exercise the pool
    /// on workloads of any size).
    int shardMinActive = 2;
};

} // namespace taqos
