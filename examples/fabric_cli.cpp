/// Fabric-scale consolidated server from the command line: declare a
/// multi-chip fabric with a FabricSpec, admit the paper's three-VM mix on
/// every chip, and run the whole machine — all shared columns active,
/// cross-chip traffic over the inter-chip links — cycle-accurately to
/// drain. The default geometry is the kilo-node acceptance fabric:
/// 4 chips x 32x32 tiles x 2 shared columns = 1024 routers.
///
/// Options (key=value, all optional):
///   chips=4              chips in the fabric
///   tiles=32             tiles per chip edge (square; 4-way concentrated)
///   columns=4,12         shared-column grid xs
///   topo=dps             column topology (mesh_x1..fbfly)
///   mode=pvc             column QoS policy
///   links=p2p|ring       inter-chip link topology
///   rate=0.05            flits/cycle per owned compute node, in (0, 1]
///   remote=0.25          remote-chip share of each node's rate, in
///                        [0, 1]
///   workload=SPEC        dynamic workload (steady | bursty:... |
///                        ramp:...; burst=on,off,gain shorthand works
///                        too — trace/churn have no fabric embedding)
///   shards=1             engine shard threads (bit-identical)
///   crosscheck=N         also run with N shards and require the metrics
///                        digest to match the first run (exit 1 if not)
///   verify=1             record the flit trace and run the independent
///                        checker's audit on it (exit 1 on violations)
///   seed=S warmup=C measure=C drain=C
///   fast=1               short phases for smokes
///
/// A malformed geometry (chips, tiles, columns), an out-of-range rate or
/// a bad phase (negative, or measure=0) prints one diagnosed line and
/// exits 1 before any work starts.
///
/// Examples:
///   fabric_cli fast=1
///   fabric_cli chips=2 tiles=16 columns=4 links=ring verify=1
///   fabric_cli fast=1 shards=4 crosscheck=1 verify=1   # CI smoke
#include <cstdio>

#include "chip/os.h"
#include "common/options.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"

using namespace taqos;

int
main(int argc, char **argv)
{
    const OptionMap opts(argc, argv);

    FabricConsolidationConfig cfg;
    cfg.chips = static_cast<int>(opts.getInt("chips", 4));
    const int tiles = static_cast<int>(opts.getInt("tiles", 32));
    cfg.chip.tilesX = cfg.chip.tilesY = tiles;
    cfg.chip.sharedColumns =
        opts.has("columns") ? parseIntList(opts.get("columns", ""))
                            : std::vector<int>{4, 12};
    cfg.topology = enumOption(opts, "topo", TopologyKind::Dps,
                              parseTopology, "topology", topologyNames());
    cfg.mode = enumOption(opts, "mode", QosMode::Pvc, parseQosMode, "mode",
                          joinNames(kAllQosModes, qosModeName));
    cfg.links = enumOption(opts, "links", LinkTopology::PointToPoint,
                           parseLinkTopology, "link topology", "p2p ring");
    cfg.ratePerNode = opts.getDouble("rate", 0.05);
    if (!(cfg.ratePerNode > 0.0 && cfg.ratePerNode <= 1.0)) {
        optionError(strFormat("bad rate '%s': want flits/cycle per node "
                              "in (0, 1]",
                              opts.get("rate", "").c_str()));
    }
    cfg.remoteShare = opts.getDouble("remote", 0.25);
    if (!(cfg.remoteShare >= 0.0 && cfg.remoteShare <= 1.0)) {
        optionError(strFormat("bad remote '%s': want a share in [0, 1]",
                              opts.get("remote", "").c_str()));
    }
    FabricSpec shape;
    shape.chips = cfg.chips;
    shape.chip = cfg.chip;
    shape.links = cfg.links;
    if (const std::string bad = shape.validate(); !bad.empty())
        optionError(bad);
    // Every chip admits the paper's three-VM mix; a chip too small for it
    // is a malformed geometry too.
    OsScheduler probe(cfg.chip);
    for (const auto &vm : vmPlacements()[0].servers) {
        if (!probe.createVm(vm.id, vm.threads, vm.weight)) {
            optionError(strFormat("bad fabric: %d compute nodes per chip "
                                  "cannot host VM %d (%d threads) of the "
                                  "three-VM mix",
                                  cfg.chip.computeNodes(), vm.id,
                                  vm.threads));
        }
    }
    const std::vector<WorkloadSpec> wspecs = workloadAxisFromOpts(opts);
    if (wspecs.size() > 1)
        optionError("fabric_cli takes a single workload spec");
    if (!wspecs.empty()) {
        if (!wspecs[0].isSteady() && !wspecs[0].modulated()) {
            optionError(strFormat(
                "fabric runs take steady/bursty/ramp workloads, got %s",
                workloadKindName(wspecs[0].kind)));
        }
        cfg.workload = wspecs[0];
    }
    cfg.shards = static_cast<int>(opts.getInt("shards", 1));
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    cfg.audit = opts.getBool("verify", false);
    cfg.phases = opts.getBool("fast", false) ? RunPhases{500, 2000, 1000}
                                             : RunPhases{2000, 8000, 4000};
    cfg.phases.warmup =
        static_cast<Cycle>(opts.getInt("warmup",
                                       static_cast<std::int64_t>(
                                           cfg.phases.warmup)));
    cfg.phases.measure =
        static_cast<Cycle>(opts.getInt("measure",
                                       static_cast<std::int64_t>(
                                           cfg.phases.measure)));
    cfg.phases.drain =
        static_cast<Cycle>(opts.getInt("drain",
                                       static_cast<std::int64_t>(
                                           cfg.phases.drain)));
    if (const std::string bad = cfg.phases.validate(); !bad.empty())
        optionError("bad fabric run: " + bad);

    std::printf("=== fabric: %d chip(s) x %dx%d tiles, %zu shared "
                "column(s), %s links, %s/%s ===\n",
                cfg.chips, tiles, tiles, cfg.chip.sharedColumns.size(),
                linkTopologyName(cfg.links), topologyName(cfg.topology),
                qosModeName(cfg.mode));

    const FabricConsolidationResult res = runFabricConsolidation(cfg);
    std::printf("  %d routers, %llu packets delivered, %llu handoffs, "
                "%llu link hops, %llu preemptions\n",
                res.nodes,
                static_cast<unsigned long long>(res.deliveredPackets),
                static_cast<unsigned long long>(res.handoffs),
                static_cast<unsigned long long>(res.linkHops),
                static_cast<unsigned long long>(res.preemptions));
    std::printf("  avg latency %.1f cycles, digest %016llx\n",
                res.avgLatency,
                static_cast<unsigned long long>(res.digest));
    if (res.drainCycle == kNoCycle)
        std::printf("  drain: budget exhausted\n");
    else
        std::printf("  drained at cycle %llu, invariants clean\n",
                    static_cast<unsigned long long>(res.drainCycle));

    TextTable t;
    t.setHeader({"chip", "vm", "weight", "nodes", "flits", "flits/node"});
    for (const auto &vm : res.vms) {
        t.addRow({strFormat("%d", vm.chip), strFormat("%d", vm.vmId),
                  strFormat("%u", vm.weight),
                  strFormat("%zu", vm.domainNodes),
                  strFormat("%llu",
                            static_cast<unsigned long long>(vm.flits)),
                  strFormat("%.1f", vm.flitsPerNode)});
    }
    std::printf("\nPer-VM service (should scale with the programmed "
                "weights on every chip):\n%s\n",
                t.render().c_str());

    int rc = 0;
    if (cfg.audit) {
        if (res.auditOk) {
            std::printf("checker audit: OK (%llu events)\n",
                        static_cast<unsigned long long>(res.auditEvents));
        } else {
            std::printf("checker audit: FAILED — %s\n",
                        res.auditDiagnostic.c_str());
            rc = 1;
        }
    }

    const int crossShards = static_cast<int>(opts.getInt("crosscheck", 0));
    if (crossShards > 0) {
        FabricConsolidationConfig other = cfg;
        other.shards = crossShards;
        other.audit = false;
        const FabricConsolidationResult check =
            runFabricConsolidation(other);
        if (check.digest == res.digest) {
            std::printf("digest cross-check: OK (shards=%d == shards=%d)\n",
                        cfg.shards, crossShards);
        } else {
            std::printf("digest cross-check: MISMATCH (shards=%d %016llx "
                        "vs shards=%d %016llx)\n",
                        cfg.shards,
                        static_cast<unsigned long long>(res.digest),
                        crossShards,
                        static_cast<unsigned long long>(check.digest));
            rc = 1;
        }
    }
    if (res.drainCycle == kNoCycle)
        rc = 1;
    return rc;
}
