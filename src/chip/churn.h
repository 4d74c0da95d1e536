/// \file churn.h
/// Tenant churn: VMs arriving at and departing from the consolidated
/// server mid-run. The driver owns an OsScheduler and a deterministic
/// event schedule — one arrival or departure per epoch (a configurable
/// number of QOS frames), derived purely from the seed and the epoch
/// index, never from execution order — and reprograms a live one-chip,
/// one-column FabricSim at each epoch boundary: column flow registers
/// rewritten through Network::reprogramFlowWeights, departed tenants'
/// compute flows silenced and arriving tenants' flows enabled through
/// TrafficGenerator::setFlowActive on block 0's generator.
///
/// Because the schedule is a pure function of (seed, epoch), a run can be
/// checkpointed mid-epoch and resumed bit-identically: rebuild the sim
/// and a fresh driver, advanceTo() the saved epoch, applyTo() the sim,
/// restore, continue. The co-scheduling invariant is asserted after every
/// event.
#pragma once

#include <cstdint>
#include <vector>

#include "chip/os.h"
#include "topo/fabric.h"
#include "traffic/workload_spec.h"

namespace taqos {

class FabricSim;

/// One initially admitted VM (mirrors the sweep layer's placement
/// presets without depending on them).
struct ChurnTenant {
    int id = 0;
    int threads = 0;
    std::uint32_t weight = 1;
};

class ChurnDriver {
  public:
    /// Admits the initial tenants (epoch 0 state). `cfg` must be one chip
    /// with one shared column (a diagnosed assertion rejects more).
    /// `spec` must be a Churn-kind workload; `seed` drives the event
    /// schedule.
    ChurnDriver(const FabricSpec &cfg,
                const std::vector<ChurnTenant> &initial,
                const WorkloadSpec &spec, std::uint64_t seed);

    /// Epoch length in cycles: churnFrames x the column's QOS frame, so
    /// every tenant change lands exactly on a frame boundary.
    Cycle epochLen() const;

    int currentEpoch() const { return epoch_; }

    /// Replay the event schedule up to `epoch` (monotonic; asserts the
    /// co-scheduling invariant after every event).
    void advanceTo(int epoch);

    /// Flow registers for the current tenant mix (what the hypervisor
    /// programs into the shared column).
    PvcParams flowRegisters() const;

    /// Per-flow activity of the current mix for the chip's compute flows
    /// (injector slots k >= 1). Terminal flows (k == 0) are reported
    /// false and never touched by applyTo — the cell runner owns them
    /// (they carry the adversarial rates under churnAttack).
    std::vector<bool> activeComputeFlows() const;

    /// Push the current epoch's state into a live sim: rewrite the flow
    /// registers and reprogram the compute flows' activity. Call at the
    /// frame-aligned epoch boundary (or right after a checkpoint
    /// restore, to re-establish the epoch the snapshot was taken in).
    void applyTo(FabricSim &sim) const;

    const OsScheduler &os() const { return os_; }
    int arrivals() const { return arrivals_; }
    int departures() const { return departures_; }
    int liveVms() const { return static_cast<int>(os_.vms().size()); }

  private:
    void step(); ///< apply epoch_ + 1's event

    FabricSpec cfg_; ///< column shaped as FabricNetwork::build shapes it
    /// Grid x of the compute node feeding injector slot k (entry k - 1).
    std::vector<int> computeXs_;
    WorkloadSpec spec_;
    std::uint64_t seed_;
    OsScheduler os_;
    int epoch_ = 0;
    int nextVmId_ = 0;
    int arrivals_ = 0;
    int departures_ = 0;
};

} // namespace taqos
