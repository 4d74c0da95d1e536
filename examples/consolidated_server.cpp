/// Server consolidation (the paper's Sec. 1 motivation): several
/// virtualized servers with different priorities share one CMP. The
/// hypervisor allocates each VM a convex domain, co-schedules threads, and
/// programs the shared column's flow registers with the VMs' SLA weights;
/// PVC then delivers memory bandwidth in proportion to priority, and the
/// isolation audit confirms no interference outside the QOS region.
/// The scenario runs cycle-accurately end to end on the whole chip:
/// every VM's memory requests traverse its row mesh into the
/// QOS-protected column.
///
///   $ ./consolidated_server
#include <cstdio>

#include "core/taqos.h"

using namespace taqos;

int
main()
{
    const ChipConfig chip; // 256 tiles, 8x8 nodes, shared column at x=4
    OsScheduler os(chip);

    // Three servers with different service classes.
    struct Server {
        int id;
        const char *name;
        int threads;
        std::uint32_t weight;
    };
    const Server servers[] = {
        {1, "web frontend (external)", 64, 4},
        {2, "database (external)", 48, 2},
        {3, "intranet batch", 32, 1},
    };

    std::printf("=== VM admission ===\n");
    for (const auto &s : servers) {
        const auto vm = os.createVm(s.id, s.threads, s.weight);
        if (!vm.has_value()) {
            std::printf("  %s: admission FAILED\n", s.name);
            return 1;
        }
        std::printf("  %-26s %2d threads -> %2zu-node convex domain, "
                    "weight %u\n",
                    s.name, s.threads, vm->domain.size(), s.weight);
    }
    std::printf("  co-scheduling invariant: %s\n",
                os.coScheduleInvariant() ? "OK" : "VIOLATED");

    // Isolation audit over all legal traffic.
    MecsRouter router(chip);
    IsolationAuditor audit(chip);
    for (const auto &vm : os.vms()) {
        for (const auto &a : vm.domain.nodes()) {
            for (const auto &b : vm.domain.nodes())
                if (!(a == b))
                    audit.addRoute(vm.id, router.routeXY(a, b));
            for (int row = 0; row < chip.nodesY(); ++row)
                audit.addRoute(vm.id, router.routeToSharedColumn(a, row));
        }
    }
    // Web <-> database IPC rides the QOS-protected column.
    const VmInfo *web = os.vm(1);
    const VmInfo *db = os.vm(2);
    for (const auto &a : web->domain.nodes())
        audit.addRoute(1,
                       router.routeInterDomain(a, db->domain.nodes().front()));
    std::printf("  isolation audit: %zu violations\n\n",
                audit.audit().size());

    // Program the shared column's flow registers from the VM weights and
    // run the whole chip — row meshes plus the DPS + PVC column —
    // cycle-accurately until every memory request has drained.
    FabricSpec cfg; // one chip, its one shared column
    cfg.chip = chip;
    cfg.column.topology = TopologyKind::Dps;
    cfg.column.numNodes = chip.nodesY();
    cfg.column.pvc =
        os.columnFlowRegisters(chip.sharedColumns.front(), cfg.column);

    std::printf("=== full-chip run: rows -> shared DPS column (PVC) ===\n");
    TrafficConfig traffic = makeHotspotAll(cfg.column, 0.05);
    traffic.genUntil = 110000;
    FabricSim sim(cfg, traffic);
    sim.setMeasureWindow(10000, 110000);
    const Cycle done = sim.runUntilDrained(400000, traffic.genUntil);
    sim.checkInvariants();
    std::printf("  %llu packets delivered, %llu row handoffs, "
                "%llu preemptions\n",
                static_cast<unsigned long long>(
                    sim.metrics().deliveredPackets),
                static_cast<unsigned long long>(sim.handoffs()),
                static_cast<unsigned long long>(
                    sim.metrics().preemptionEvents));
    if (done == kNoCycle)
        std::printf("  drain: budget exhausted\n\n");
    else
        std::printf("  drained at cycle %llu, invariants clean\n\n",
                    static_cast<unsigned long long>(done));

    // Attribute delivered bandwidth back to VMs through node ownership.
    double vmFlits[4] = {};
    const SimMetrics &m = sim.metrics();
    // Injector slot k >= 1 is fed by the k-th compute node of the row.
    const std::vector<int> &computeXs = sim.network().catchment(0);
    for (int row = 0; row < chip.nodesY(); ++row) {
        for (int k = 1; k < cfg.column.injectorsPerNode; ++k) {
            const int x = computeXs[static_cast<std::size_t>(k - 1)];
            const int owner = os.ownerOf(NodeCoord{x, row});
            if (owner >= 1 && owner <= 3) {
                vmFlits[owner] += static_cast<double>(
                    m.flowFlits[static_cast<std::size_t>(
                        cfg.column.flowOf(row, k))]);
            }
        }
    }
    for (const auto &s : servers) {
        const VmInfo *vm = os.vm(s.id);
        const double perNode =
            vmFlits[s.id] / static_cast<double>(vm->domain.size());
        std::printf("  %-26s weight %u -> %8.0f flits (%.0f per node)\n",
                    s.name, s.weight, vmFlits[s.id], perNode);
    }
    std::printf("\nPer-node service should scale with the programmed "
                "weights (4 : 2 : 1),\nindependent of where each VM sits "
                "on the die.\n");
    return 0;
}
