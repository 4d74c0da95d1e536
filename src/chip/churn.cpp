#include "chip/churn.h"

#include <algorithm>

#include "common/assert.h"
#include "sim/fabric_sim.h"

namespace taqos {
namespace {

constexpr std::uint64_t kChurnSalt = 0x7a05'c4c4'0000'0001ull;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Arriving tenants draw their shape from small fixed tables — enough
/// variety to exercise every placement size the allocator handles.
constexpr int kArrivalThreads[4] = {16, 32, 48, 64};
constexpr std::uint32_t kArrivalWeights[3] = {1, 2, 4};

} // namespace

ChurnDriver::ChurnDriver(const FabricSpec &cfg,
                         const std::vector<ChurnTenant> &initial,
                         const WorkloadSpec &spec, std::uint64_t seed)
    : cfg_(cfg), spec_(spec), seed_(seed), os_(cfg.chip)
{
    TAQOS_ASSERT(cfg_.chips == 1 && cfg_.blocksPerChip() == 1,
                 "tenant churn drives one chip with one shared column, "
                 "got %d chip(s) x %d shared column(s)",
                 cfg_.chips, cfg_.blocksPerChip());
    TAQOS_ASSERT(spec_.kind == WorkloadKind::Churn,
                 "churn driver needs a churn workload, got %s",
                 workloadKindName(spec_.kind));
    computeXs_ = fabricCatchments(cfg_.chip).front();
    cfg_.column.numNodes = cfg_.chip.nodesY();
    cfg_.column.injectorsPerNode = 1 + static_cast<int>(computeXs_.size());
    for (const auto &t : initial) {
        const auto vm = os_.createVm(t.id, t.threads, t.weight);
        TAQOS_ASSERT(vm.has_value(), "initial VM %d admission failed",
                     t.id);
        nextVmId_ = std::max(nextVmId_, t.id + 1);
    }
    TAQOS_ASSERT(os_.coScheduleInvariant(),
                 "co-scheduling violated at admission");
}

Cycle
ChurnDriver::epochLen() const
{
    return static_cast<Cycle>(spec_.churnFrames) * cfg_.column.pvc.frameLen;
}

void
ChurnDriver::step()
{
    const int epoch = epoch_ + 1;
    const std::uint64_t h =
        splitmix(splitmix(seed_ ^ kChurnSalt) ^
                 static_cast<std::uint64_t>(epoch));
    const int live = liveVms();

    bool arrive = (h & 1) != 0;
    if (live >= spec_.churnMaxVms)
        arrive = false;
    if (live <= 1)
        arrive = true; // never churn the chip down to zero tenants

    if (arrive) {
        const int threads = kArrivalThreads[(h >> 1) & 3];
        const std::uint32_t weight = kArrivalWeights[(h >> 3) % 3];
        const auto vm = os_.createVm(nextVmId_++, threads, weight);
        if (vm.has_value()) {
            ++arrivals_;
        } else if (live > 1) {
            // Chip full: the arrival becomes a departure (the schedule
            // stays a pure function of (seed, epoch) either way).
            arrive = false;
        }
    }
    if (!arrive && live > 1) {
        const auto &vms = os_.vms();
        const std::size_t victim = (h >> 5) % vms.size();
        const int id = vms[victim].id;
        const bool ok = os_.destroyVm(id);
        TAQOS_ASSERT(ok, "churn departure of VM %d failed", id);
        ++departures_;
    }

    TAQOS_ASSERT(os_.coScheduleInvariant(),
                 "co-scheduling violated after churn epoch %d", epoch);
    epoch_ = epoch;
}

void
ChurnDriver::advanceTo(int epoch)
{
    TAQOS_ASSERT(epoch >= epoch_,
                 "churn schedule only advances (at %d, asked for %d)",
                 epoch_, epoch);
    while (epoch_ < epoch)
        step();
}

PvcParams
ChurnDriver::flowRegisters() const
{
    return os_.columnFlowRegisters(cfg_.chip.sharedColumns.front(),
                                   cfg_.column);
}

std::vector<bool>
ChurnDriver::activeComputeFlows() const
{
    std::vector<bool> active(
        static_cast<std::size_t>(cfg_.column.numFlows()), false);
    for (int row = 0; row < cfg_.chip.nodesY(); ++row) {
        for (int k = 1; k < cfg_.column.injectorsPerNode; ++k) {
            const int x = computeXs_[static_cast<std::size_t>(k - 1)];
            if (os_.ownerOf(NodeCoord{x, row}) >= 0) {
                active[static_cast<std::size_t>(
                    cfg_.column.flowOf(row, k))] = true;
            }
        }
    }
    return active;
}

void
ChurnDriver::applyTo(FabricSim &sim) const
{
    TAQOS_ASSERT(sim.network().blocks() == 1,
                 "tenant churn drives a one-block fabric, got %d blocks",
                 sim.network().blocks());
    sim.network().reprogramFlowWeights(flowRegisters().weights);
    // One block: its local flow ids are the global ones.
    TrafficGenerator &gen = sim.traffic().generator(0);
    const auto active = activeComputeFlows();
    for (int row = 0; row < cfg_.chip.nodesY(); ++row) {
        for (int k = 1; k < cfg_.column.injectorsPerNode; ++k) {
            const FlowId f = cfg_.column.flowOf(row, k);
            gen.setFlowActive(f, active[static_cast<std::size_t>(f)]);
        }
    }
}

} // namespace taqos
