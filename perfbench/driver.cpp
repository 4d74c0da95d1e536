/// Benchmark driver: runs one named taqos workload through the library's
/// public API, times it, checks its outputs, and writes a raw record
/// (timings, simulated counts, per-cell checks, spans) that
/// perfbench/run.py reduces to the reported metrics.
///
///   perfbench_driver --workload fig4_grid|fabric_bursty|qos_adversarial
///                    --seed N --seconds S --trace 0|1 --out DIR
///
/// --trace 0 measures the end-to-end numbers: set-up several times, then
/// untraced repetitions of the whole workload for about S seconds, with
/// the host gauge (see Gauge) sampled alongside for run.py's scaling.
/// --trace 1 makes one untraced run and then one traced run of the same
/// work, recording a span around each call into a layer; probes then call
/// single layers (topology build, sim construction and run phases,
/// traffic generation) directly on the workload's own cells. Spans stay
/// in memory and are written to DIR/spans.json at the end.
///
/// Seed 0 selects the paper-figure seeds, whose outputs run.py compares
/// with bench/nightly_ref; any other seed derives fresh traffic seeds.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chip/churn.h"
#include "chip/os.h"
#include "core/experiments.h"
#include "exp/json_writer.h"
#include "exp/sweep.h"
#include "noc/metrics.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "topo/column_network.h"
#include "topo/fabric.h"
#include "traffic/workload_spec.h"
#include "traffic/workloads.h"

using namespace taqos;

namespace {

// ------------------------------------------------------------- tracing

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(Clock::now() - kEpoch)
        .count();
}

double
secondsSince(double startNs)
{
    return (nowNs() - startNs) * 1e-9;
}

using Attrs = std::vector<std::pair<std::string, double>>;

struct Span {
    std::string name;
    double start = 0.0; ///< ns since driver start
    double end = 0.0;
    int parent = -1;
    int cell = -1; ///< workload-wide cell id (-1: not tied to a cell)
    Attrs attrs;
};

/// In-memory span store; worker threads open and close spans
/// concurrently.
class Tracer {
  public:
    int open(const char *name, int parent, int cell)
    {
        const double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, t, t, parent, cell, {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id, Attrs attrs)
    {
        const double t = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = t;
        s.attrs = std::move(attrs);
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// One span for the lifetime of the scope; a no-op without a tracer, so
/// untraced runs execute the same code with nothing recorded.
class Scope {
  public:
    Scope(Tracer *tr, const char *name, int parent = -1, int cell = -1)
        : tr_(tr), id_(tr != nullptr ? tr->open(name, parent, cell) : -1)
    {
    }
    ~Scope()
    {
        if (tr_ != nullptr)
            tr_->close(id_, std::move(attrs_));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void attr(const char *k, double v)
    {
        if (tr_ != nullptr)
            attrs_.emplace_back(k, v);
    }
    int id() const { return id_; }

  private:
    Tracer *tr_;
    int id_;
    Attrs attrs_;
};

// ------------------------------------------------------------- record

struct CellCheck {
    std::string part;
    int index = 0; ///< position in its part's expansion order
    std::string label;
    std::vector<std::string> failures;
};

struct PartFile {
    std::string name;
    std::string file; ///< untraced taqos-sweep/v1 record
    std::string ref;  ///< bench/nightly_ref stem ("" = none)
};

struct Record {
    std::vector<double> setupS;
    std::vector<double> setupGaugeS; ///< gauge sample before each set-up
    std::vector<double> repWallS;
    std::vector<double> repGaugeS; ///< gauge median during each repetition
    double gaugeKb = 0.0;          ///< resident memory of the gauges
    double simCycles = 0.0; ///< per repetition (deterministic)
    double flits = 0.0;     ///< measure-window flits per repetition
    double untracedWallS = 0.0;
    double tracedWallS = 0.0;
    std::vector<PartFile> parts;
    std::vector<CellCheck> cells;
    Attrs counts;
    std::string digest;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    int workers = 1;
};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed 0 keeps the figure's own seed; others derive a fresh one.
std::uint64_t
seedFor(std::uint64_t seed, std::uint64_t figureSeed)
{
    return seed == 0 ? figureSeed : splitmix(seed);
}

void
parallelFor(int n, int workers, const std::function<void(int)> &fn)
{
    std::atomic<int> next{0};
    const auto body = [&] {
        for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < std::min(workers, n); ++w)
        pool.emplace_back(body);
    body();
    for (auto &t : pool)
        t.join();
}

/// Pins the calling thread to one CPU for its lifetime, then restores
/// the previous mask. Single-threaded work takes the speed of whichever
/// CPU it lands on, and on a shared host that differs by tens of percent;
/// pinning its repetitions (and set-up samples) to each allowed CPU in
/// turn keeps one slow CPU from deciding the median. Best effort.
class PinnedTo {
  public:
    explicit PinnedTo(int cpu)
    {
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    }
    ~PinnedTo()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }
    PinnedTo(const PinnedTo &) = delete;
    PinnedTo &operator=(const PinnedTo &) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

// Set-up is timed call by call, this many times; the median is reported.
constexpr std::size_t kSetupSamples = 45;

double
median(std::vector<double> v)
{
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) +
            hi) /
           2.0;
}

// ---------------------------------------------------------- host gauge

/// A fixed loop, independent of taqos, that tells how fast this host runs
/// memory-bound, branchy code at the moment: random read-modify-writes
/// with a data-dependent branch over a 4 MiB table, twice a core's L2 on
/// the hosts measured. On a shared host the simulator's speed swings by
/// up to 2x within minutes as neighbours load the caches and cores, and
/// this loop's time swings with it when it is sampled on the same CPU
/// at the same moments. run.py scales every end-to-end timing by a fixed
/// reference time of this loop over the samples taken with it.
class Gauge {
    static constexpr std::size_t kWords = std::size_t{1} << 19;

  public:
    /// Memory one gauge keeps resident, which peak RSS leaves out.
    static constexpr double kKb = kWords * sizeof(std::uint64_t) / 1024.0;

    Gauge() : table_(kWords, 1) {}

    /// Seconds one pass takes now on the calling thread's CPU.
    double sample()
    {
        const double t0 = nowNs();
        std::uint64_t x = 7;
        std::uint64_t acc = 0;
        for (int i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t &v = table_[x & (kWords - 1)];
            if ((v & 1) != 0) {
                v += x >> 32;
                acc += v;
            } else {
                v ^= acc;
                table_[(x >> 20) & (kWords - 1)] += 1;
            }
        }
        sink_ += acc;
        return secondsSince(t0);
    }

  private:
    static constexpr int kSteps = 200000;
    std::vector<std::uint64_t> table_;
    std::uint64_t sink_ = 0;
};

/// Gauge samples taken between the run chunks of one untraced repetition.
struct GaugeLog {
    Gauge *gauge;
    std::vector<double> samples;
    double spentS = 0.0; ///< time inside the gauge, kept out of the wall
};

// An untraced single-network run samples the gauge after every this many
// cycles, about 0.1-0.3 s of the kilo-node fabric on the hosts measured.
constexpr Cycle kGaugeChunk = 2000;

/// Median gauge sample over every allowed CPU, three samples each, all
/// CPUs at once on pinned threads, as a sweep's workers run.
double
gaugeAllCpus(const std::vector<int> &cpus, std::vector<Gauge> &gauges)
{
    constexpr int kPerCpu = 3;
    const int n = static_cast<int>(cpus.size());
    std::vector<double> s(cpus.size() * kPerCpu);
    parallelFor(n, n, [&](int i) {
        const PinnedTo pin(cpus[static_cast<std::size_t>(i)]);
        for (int k = 0; k < kPerCpu; ++k) {
            s[static_cast<std::size_t>(i * kPerCpu + k)] =
                gauges[static_cast<std::size_t>(i)].sample();
        }
    });
    return median(s);
}

double
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

// ---------------------------------------------------------- sim layer

/// Run `sim` from its current cycle to `to`, one span per run phase
/// (warmup / measure / fixed drain) the interval crosses.
void
runPhases(NetSim &sim, const RunPhases &ph, Cycle to, Tracer *tr,
          int parent, int cell, GaugeLog *gauge = nullptr)
{
    while (sim.now() < to) {
        const Cycle now = sim.now();
        const char *name = now < ph.warmup ? "sim.warmup"
                           : now < ph.measureEnd() ? "sim.measure"
                                                   : "sim.drain";
        const Cycle edge = std::min(
            to, now < ph.warmup ? ph.warmup
                : now < ph.measureEnd() ? ph.measureEnd()
                                        : to);
        const SimMetrics &m = sim.metrics();
        const std::uint64_t flits0 = m.deliveredFlits;
        Scope s(tr, name, parent, cell);
        for (Cycle c = now; c < edge;) {
            const Cycle n =
                gauge != nullptr ? std::min(kGaugeChunk, edge - c) : edge - c;
            sim.run(n);
            c += n;
            if (gauge != nullptr) {
                const double g0 = nowNs();
                gauge->samples.push_back(gauge->gauge->sample());
                gauge->spentS += secondsSince(g0);
            }
        }
        s.attr("cycles", static_cast<double>(edge - now));
        s.attr("routers", sim.net().numNodes());
        s.attr("flits", static_cast<double>(m.deliveredFlits - flits0));
    }
}

/// runUntilDrained under a sim.drain span.
Cycle
drainPhase(NetSim &sim, Cycle limit, Cycle earliest, Tracer *tr, int parent,
           int cell)
{
    const Cycle start = sim.now();
    const std::uint64_t flits0 = sim.metrics().deliveredFlits;
    Scope s(tr, "sim.drain", parent, cell);
    const Cycle done = sim.runUntilDrained(limit, earliest);
    s.attr("cycles", static_cast<double>(sim.now() - start));
    s.attr("routers", sim.net().numNodes());
    s.attr("flits",
           static_cast<double>(sim.metrics().deliveredFlits - flits0));
    return done;
}

/// Sums of the qos layer's simulated counts over the sims a run made.
struct QosCounts {
    double preemptions = 0.0;
    double wastedHops = 0.0;
    double usefulHops = 0.0;
    double delivered = 0.0;
    double attempts = 0.0;

    void add(const SimMetrics &m)
    {
        preemptions += static_cast<double>(m.preemptionEvents);
        wastedHops += m.wastedHops;
        usefulHops += m.usefulHops;
        delivered += static_cast<double>(m.deliveredPackets);
        attempts += static_cast<double>(m.injectedAttempts);
    }

    QosCounts &operator+=(const QosCounts &o)
    {
        preemptions += o.preemptions;
        wastedHops += o.wastedHops;
        usefulHops += o.usefulHops;
        delivered += o.delivered;
        attempts += o.attempts;
        return *this;
    }

    void put(Attrs &counts) const
    {
        counts.emplace_back("qos.preemptions", preemptions);
        counts.emplace_back("qos.wasted_hops", wastedHops);
        counts.emplace_back("qos.useful_hops", usefulHops);
        counts.emplace_back("qos.delivered_packets", delivered);
        counts.emplace_back("qos.injection_attempts", attempts);
    }
};

/// Drive a source's tick outside the engine for `cycles` cycles on a
/// sim that is built but never stepped (its pool and queues absorb the
/// packets; full queues suppress, as they would in a run).
template <typename Source>
void
trafficProbe(NetSim &sim, Source &src, Cycle cycles, Tracer *tr, int parent,
             int cell)
{
    Scope s(tr, "traffic.tick", parent, cell);
    for (Cycle c = 0; c < cycles; ++c)
        src.tick(c, sim.pool(), sim.net().injectors(), sim.metrics());
    s.attr("cycles", static_cast<double>(cycles));
    s.attr("packets", static_cast<double>(sim.metrics().generatedPackets +
                                          src.suppressed()));
}

std::string
cellLabel(const CellSpec &c)
{
    std::string s = std::string(scenarioName(c.scenario)) + "/" +
                    topologyName(c.topology) + "/" + qosModeName(c.mode);
    if (c.scenario == Scenario::LatencyLoad)
        s += "/rate=" + jsonNumber(c.rate);
    if (c.scenario == Scenario::Adversarial)
        s += "/workload=" + std::to_string(c.workload);
    if (c.scenario == Scenario::ChipConsolidation)
        s += "/placement=" + std::to_string(c.placement);
    return s;
}

void
expectEqual(CellCheck &chk, const char *what, double got, double want)
{
    if (got != want) {
        chk.failures.push_back(std::string(what) + ": " + jsonNumber(got) +
                               " vs " + jsonNumber(want));
    }
}

// ------------------------------------------------------- sweep parts

/// One SweepSpec of a workload plus what the runs produced.
struct Part {
    std::string name;
    SweepSpec spec;
    std::string ref; ///< bench/nightly_ref stem compared at seed 0
    int firstCell = 0;
    std::string json; ///< untraced taqos-sweep/v1 bytes
    std::vector<CellResult> cells;
};

std::vector<Part>
fig4Parts(std::uint64_t seed)
{
    std::vector<double> rates;
    for (int k = 1; k <= 15; ++k)
        rates.push_back(k / 100.0);
    SweepSpec spec = fig4Spec(TrafficPattern::UniformRandom, rates);
    spec.baseSeed = seedFor(seed, spec.baseSeed);
    std::vector<Part> parts(1);
    parts[0].name = "fig4";
    parts[0].spec = spec;
    parts[0].ref = "fig4";
    return parts;
}

std::vector<Part>
qosParts(std::uint64_t seed)
{
    SweepSpec adv = adversarialSpec(0);
    adv.baseSeed = seedFor(seed, adv.baseSeed);

    // Churn every two QOS frames (100K cycles): a 150K-cycle generation
    // horizon fires one reprogramming epoch per cell.
    SweepSpec churn = chipConsolidationSpec(TopologyKind::Dps, 0.05,
                                            RunPhases{2000, 148000, 8000});
    churn.name = "qos_churn";
    churn.placements = {0, 1, 2};
    churn.workloadSpecs = {
        *WorkloadSpec::parse("churn:frames=2,maxvms=3,attack=1")};
    churn.baseSeed = seedFor(seed, churn.baseSeed);

    std::vector<Part> parts(2);
    parts[0].name = "adversarial";
    parts[0].spec = adv;
    parts[0].ref = "fig5_fig6";
    parts[1].name = "churn";
    parts[1].spec = churn;
    return parts;
}

double
cellCycles(const CellResult &r)
{
    switch (r.spec.scenario) {
      case Scenario::Adversarial:
        return r.get("completion_cycle") + r.get("ref_completion_cycle");
      case Scenario::ChipConsolidation:
        return r.get("drain_cycle");
      default:
        return static_cast<double>(r.spec.phases.total());
    }
}

/// Execute one part cell by cell on `workers` threads with a span around
/// each SweepRunner::runCell, and assemble the same SweepResult.
SweepResult
runPartTraced(const Part &p, int workers, Tracer *tr)
{
    Scope sweep(tr, "exp.sweep");
    sweep.attr("workers", workers);
    SweepResult res;
    res.spec = p.spec.canonical();
    const std::vector<CellSpec> cells = res.spec.expand();
    res.cells.resize(cells.size());
    parallelFor(static_cast<int>(cells.size()), workers, [&](int i) {
        const CellSpec &cell = cells[static_cast<std::size_t>(i)];
        Scope s(tr, "exp.cell", sweep.id(), p.firstCell + i);
        CellResult r = SweepRunner::runCell(cell);
        s.attr("cycles", cellCycles(r));
        if (r.has("window_flits"))
            s.attr("flits", r.get("window_flits"));
        if (r.has("saturated")) {
            // Latency/load cells: the offered rate and whether it
            // saturated split the engine cost by load.
            s.attr("rate", cell.rate);
            s.attr("saturated", r.get("saturated"));
        }
        s.attr("chip", cell.scenario == Scenario::ChipConsolidation);
        res.cells[static_cast<std::size_t>(i)] = std::move(r);
    });
    res.aggregates = aggregateCells(res.spec, res.cells);
    return res;
}

/// Flag every cell whose metrics differ from the part's first run.
void
compareCells(const Part &p, const std::vector<CellResult> &cells,
             Record &rec, const char *what)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i >= p.cells.size() || cells[i].metrics != p.cells[i].metrics) {
            rec.cells[static_cast<std::size_t>(p.firstCell) + i]
                .failures.push_back(std::string("output differs from the ") +
                                    what);
        }
    }
}

void
initParts(std::vector<Part> &parts, Record &rec)
{
    int next = 0;
    for (Part &p : parts) {
        p.firstCell = next;
        const std::vector<CellSpec> cells = p.spec.expand();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            rec.cells.push_back(
                {p.name, static_cast<int>(i), cellLabel(cells[i]), {}});
        }
        next += static_cast<int>(cells.size());
    }
}

/// One untraced repetition of every part through SweepRunner (the user
/// path); the first one is kept as the
/// reference the later repetitions and the traced run must reproduce.
double
sweepRep(std::vector<Part> &parts, const Options &o, Record &rec)
{
    const double t0 = nowNs();
    std::vector<SweepResult> results;
    for (const Part &p : parts)
        results.push_back(SweepRunner(o.workers).run(p.spec));
    const double wall = secondsSince(t0);

    for (std::size_t k = 0; k < parts.size(); ++k) {
        Part &p = parts[k];
        std::string json = results[k].toJson();
        if (p.json.empty()) {
            p.json = std::move(json);
            p.cells = results[k].cells;
            continue;
        }
        if (json != p.json) {
            compareCells(p, results[k].cells, rec, "first repetition");
            rec.cells[static_cast<std::size_t>(p.firstCell)]
                .failures.push_back("sweep bytes differ across repetitions");
        }
    }
    return wall;
}

void
writeParts(const std::vector<Part> &parts, const Options &o, Record &rec)
{
    for (const Part &p : parts) {
        const std::string file = o.out + "/" + p.name + ".sweep.json";
        if (!writeTextFile(file, p.json)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         file.c_str());
            std::exit(1);
        }
        rec.parts.push_back({p.name, file, p.ref});
    }
}

/// Cells of the workload that are churn consolidation cells must have
/// fired at least one reprogramming epoch.
void
checkChurnEpochs(const Part &p, Record &rec, double &epochs)
{
    for (std::size_t i = 0; i < p.cells.size(); ++i) {
        if (!p.cells[i].has("churn_epochs"))
            continue;
        const double e = p.cells[i].get("churn_epochs");
        epochs += e;
        if (e < 1.0) {
            rec.cells[static_cast<std::size_t>(p.firstCell) + i]
                .failures.push_back("churn cell fired no epoch");
        }
    }
}

// -------------------------------------------------------------- probes

/// The simulator SweepRunner::runCell builds for a latency/load cell.
std::unique_ptr<ColumnSim>
latencyCellSim(const CellSpec &cell)
{
    TrafficConfig traffic;
    traffic.pattern = cell.pattern;
    traffic.injectionRate = cell.rate;
    traffic.seed = cell.seed;
    auto sim = std::make_unique<ColumnSim>(
        paperColumn(cell.topology, cell.mode), traffic, cell.workloadSpec);
    sim->configure({.shards = cell.shards});
    sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    return sim;
}

/// One of the two simulators SweepRunner::runCell builds for an
/// adversarial cell: the cell's own policy, or the preemption-free
/// per-flow-queue reference on identical traffic.
std::unique_ptr<ColumnSim>
adversarialCellSim(const CellSpec &cell, QosMode mode)
{
    const ColumnConfig col = paperColumn(cell.topology, cell.mode);
    TrafficConfig traffic =
        cell.workload == 1 ? makeWorkload1(col) : makeWorkload2(col);
    traffic.genUntil = cell.genCycles;
    traffic.seed = cell.seed;
    ColumnConfig c = col;
    c.mode = mode;
    auto sim = std::make_unique<ColumnSim>(c, traffic, cell.workloadSpec);
    sim->configure({.shards = cell.shards});
    sim->setMeasureWindow(0, cell.genCycles);
    return sim;
}

/// Fig. 4 probe: the grid's cell at one rate, for every topology,
/// decomposed into topology build, sim construction and run phases, plus
/// its traffic source driven alone. The decomposition must reproduce
/// runCell's outputs for that cell.
void
fig4Probes(const Part &p, Tracer *tr, Record &rec, QosCounts &qos)
{
    const double kProbeRate = 0.05;
    const std::vector<CellSpec> cells = p.spec.expand();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &cell = cells[i];
        if (cell.rate != kProbeRate)
            continue;
        const int id = p.firstCell + static_cast<int>(i);
        CellCheck &chk = rec.cells[static_cast<std::size_t>(id)];
        Scope probe(tr, "bench.probe", -1, id);

        {
            Scope s(tr, "topo.build", probe.id(), id);
            const auto net =
                ColumnNetwork::build(paperColumn(cell.topology, cell.mode));
            s.attr("routers", net->numNodes());
        }
        std::unique_ptr<ColumnSim> sim;
        {
            Scope s(tr, "sim.build", probe.id(), id);
            sim = latencyCellSim(cell);
        }
        runPhases(*sim, cell.phases, cell.phases.total(), tr, probe.id(),
                  id);
        const SimMetrics &m = sim->metrics();
        qos.add(m);
        const CellResult &out = p.cells[i];
        expectEqual(chk, "probe window_flits",
                    static_cast<double>(m.windowFlits()),
                    out.get("window_flits"));
        expectEqual(chk, "probe delivered_packets",
                    static_cast<double>(m.latency.count()),
                    out.get("delivered_packets"));

        const auto idle = latencyCellSim(cell);
        trafficProbe(*idle, *idle->traffic(), cell.phases.total(), tr,
                     probe.id(), id);
    }
}

/// The sims of one adversarial cell (PVC, then the preemption-free
/// per-flow-queue reference), run the way runCell runs them but with
/// the run split into spans. Both must reproduce runCell's outputs.
/// Returns the flits both sims delivered in their measure windows.
double
adversarialProbe(const CellSpec &cell, const CellResult &out, int id,
                 Tracer *tr, CellCheck &chk, QosCounts &qos)
{
    Scope probe(tr, "bench.probe", -1, id);
    const Cycle gen = cell.genCycles;
    {
        Scope s(tr, "topo.build", probe.id(), id);
        const auto net =
            ColumnNetwork::build(paperColumn(cell.topology, cell.mode));
        s.attr("routers", net->numNodes());
    }
    double flits = 0.0;
    for (const QosMode mode : {cell.mode, QosMode::PerFlowQueue}) {
        std::unique_ptr<ColumnSim> sim;
        {
            Scope s(tr, "sim.build", probe.id(), id);
            sim = adversarialCellSim(cell, mode);
        }
        runPhases(*sim, RunPhases{0, gen, 0}, gen, tr, probe.id(), id);
        const Cycle done =
            drainPhase(*sim, gen * 10 - gen, gen, tr, probe.id(), id);
        const SimMetrics &m = sim->metrics();
        flits += static_cast<double>(m.windowFlits());
        if (mode == cell.mode) {
            qos.add(m);
            expectEqual(chk, "probe completion_cycle",
                        static_cast<double>(done),
                        out.get("completion_cycle"));
            expectEqual(chk, "probe preempted_packets_pct",
                        100.0 * m.preemptionPacketRate(),
                        out.get("preempted_packets_pct"));
            expectEqual(chk, "probe replayed_hops_pct",
                        100.0 * m.preemptionHopRate(),
                        out.get("replayed_hops_pct"));
        } else {
            expectEqual(chk, "probe ref_completion_cycle",
                        static_cast<double>(done),
                        out.get("ref_completion_cycle"));
        }
    }
    if (tr != nullptr) {
        const auto idle = adversarialCellSim(cell, cell.mode);
        trafficProbe(*idle, *idle->traffic(), gen, tr, probe.id(), id);
    }
    return flits;
}

/// One tenant-churn consolidation cell, run the way runCell runs it with
/// the chip layer's reprogramming (ChurnDriver) in its own spans. Returns
/// the measure-window flits; the outputs must match runCell's.
double
churnProbe(const CellSpec &cell, const CellResult &out, int id, Tracer *tr,
           CellCheck &chk)
{
    Scope probe(tr, "bench.probe", -1, id);
    const VmPlacement &pl =
        vmPlacements()[static_cast<std::size_t>(cell.placement)];
    ChipNetConfig cfg;
    cfg.column.topology = cell.topology;
    cfg.column.mode = cell.mode;
    cfg.column.numNodes = cfg.chip.nodesY();

    std::unique_ptr<ChurnDriver> churn;
    TrafficConfig traffic;
    {
        Scope s(tr, "chip.admit", probe.id(), id);
        std::vector<ChurnTenant> initial;
        for (const auto &vm : pl.servers)
            initial.push_back({vm.id, vm.threads, vm.weight});
        churn = std::make_unique<ChurnDriver>(cfg, initial, cell.workloadSpec,
                                              cell.seed);
        cfg.column.pvc = churn->flowRegisters();
        traffic.pattern = TrafficPattern::UniformRandom;
        traffic.injectionRate = cell.rate;
        traffic.genUntil = cell.phases.measureEnd();
        traffic.seed = cell.seed;
        const std::vector<bool> active = churn->activeComputeFlows();
        traffic.activeFlows.assign(active.begin(), active.end());
        if (cell.workloadSpec.churnAttack) {
            const auto &rates = workload1Rates();
            traffic.flowRates.assign(
                static_cast<std::size_t>(cfg.column.numFlows()), -1.0);
            for (int row = 0; row < cfg.chip.nodesY(); ++row) {
                const auto f =
                    static_cast<std::size_t>(cfg.column.flowOf(row, 0));
                traffic.activeFlows[f] = true;
                traffic.flowRates[f] =
                    rates[static_cast<std::size_t>(row) % rates.size()];
            }
        }
    }
    std::unique_ptr<ChipSim> sim;
    {
        Scope s(tr, "sim.build", probe.id(), id);
        sim = std::make_unique<ChipSim>(cfg, traffic);
        sim->configure({.shards = cell.shards});
        sim->setMeasureWindow(cell.phases.warmup, cell.phases.measureEnd());
    }
    const Cycle epochLen = churn->epochLen();
    const Cycle genEnd = traffic.genUntil;
    for (int e = 1; static_cast<Cycle>(e) * epochLen < genEnd; ++e) {
        runPhases(*sim, cell.phases, static_cast<Cycle>(e) * epochLen, tr,
                  probe.id(), id);
        Scope s(tr, "chip.reprogram", probe.id(), id);
        churn->advanceTo(e);
        churn->applyTo(*sim);
    }
    runPhases(*sim, cell.phases, genEnd, tr, probe.id(), id);
    const Cycle budget = cell.phases.total() * 4;
    const Cycle drain =
        drainPhase(*sim, budget - genEnd, genEnd, tr, probe.id(), id);
    sim->checkInvariants();

    const SimMetrics &m = sim->metrics();
    expectEqual(chk, "probe drain_cycle",
                drain == kNoCycle ? -1.0 : static_cast<double>(drain),
                out.get("drain_cycle"));
    expectEqual(chk, "probe delivered_packets",
                static_cast<double>(m.deliveredPackets),
                out.get("delivered_packets"));
    expectEqual(chk, "probe handoffs", static_cast<double>(sim->handoffs()),
                out.get("handoffs"));
    expectEqual(chk, "probe churn_epochs",
                static_cast<double>(churn->currentEpoch()),
                out.get("churn_epochs"));
    return static_cast<double>(m.windowFlits());
}

/// The qos_adversarial probes, cells spread over the workers. Returns the
/// measure-window flits of every sim the workload runs.
double
qosProbes(const std::vector<Part> &parts, const Options &o, Tracer *tr,
          Record &rec, QosCounts &qos)
{
    struct Job {
        const Part *part;
        std::size_t index;
    };
    std::vector<Job> jobs;
    for (const Part &p : parts) {
        for (std::size_t i = 0; i < p.cells.size(); ++i)
            jobs.push_back({&p, i});
    }
    std::vector<double> flits(jobs.size(), 0.0);
    std::vector<QosCounts> counts(jobs.size());
    parallelFor(static_cast<int>(jobs.size()), o.workers, [&](int j) {
        const Job &job = jobs[static_cast<std::size_t>(j)];
        const CellResult &out = job.part->cells[job.index];
        const int id = job.part->firstCell + static_cast<int>(job.index);
        CellCheck &chk = rec.cells[static_cast<std::size_t>(id)];
        flits[static_cast<std::size_t>(j)] =
            out.spec.scenario == Scenario::Adversarial
                ? adversarialProbe(out.spec, out, id, tr, chk,
                                   counts[static_cast<std::size_t>(j)])
                : churnProbe(out.spec, out, id, tr, chk);
    });
    double total = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        total += flits[j];
        qos += counts[j];
    }
    return total;
}

// ------------------------------------------------------ sweep workloads

void
runSweepWorkload(const Options &o, Record &rec, Tracer *tr)
{
    const bool fig4 = o.workload == "fig4_grid";
    const auto makeParts = [&] {
        return fig4 ? fig4Parts(o.seed) : qosParts(o.seed);
    };

    std::vector<Part> parts = makeParts();
    initParts(parts, rec);
    // Set-up up to the first simulated cycle: build and expand the specs,
    // then construct the first cell's simulator.
    const std::vector<int> cpus = allowedCpus();
    std::vector<Gauge> gauges(cpus.size());
    rec.gaugeKb = Gauge::kKb * static_cast<double>(gauges.size());
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
        const PinnedTo pin(cpus[i % cpus.size()]);
        rec.setupGaugeS.push_back(gauges[i % cpus.size()].sample());
        const double t0 = nowNs();
        std::vector<CellSpec> cells;
        for (const Part &p : makeParts()) {
            const std::vector<CellSpec> more = p.spec.expand();
            cells.insert(cells.end(), more.begin(), more.end());
        }
        const CellSpec &first = cells.front();
        const auto sim = first.scenario == Scenario::Adversarial
                             ? adversarialCellSim(first, first.mode)
                             : latencyCellSim(first);
        rec.setupS.push_back(secondsSince(t0));
    }

    if (!tr) {
        // The gauge runs on every CPU before and after each repetition;
        // a repetition is scaled by the mean of the two.
        const double t0 = nowNs();
        double before = gaugeAllCpus(cpus, gauges);
        do {
            rec.repWallS.push_back(sweepRep(parts, o, rec));
            const double after = gaugeAllCpus(cpus, gauges);
            rec.repGaugeS.push_back((before + after) / 2.0);
            before = after;
        } while (secondsSince(t0) + rec.repWallS.back() <= o.seconds);
    } else {
        rec.untracedWallS = sweepRep(parts, o, rec);
        for (Part &p : parts) {
            const SweepResult traced = runPartTraced(p, o.workers, tr);
            if (traced.toJson() != p.json) {
                compareCells(p, traced.cells, rec, "untraced run");
                rec.cells[static_cast<std::size_t>(p.firstCell)]
                    .failures.push_back(
                        "traced sweep bytes differ from the untraced run");
            }
        }
        for (const Span &s : tr->spans()) {
            if (s.name == "exp.sweep")
                rec.tracedWallS += (s.end - s.start) * 1e-9;
        }
    }

    for (const Part &p : parts) {
        for (const CellResult &c : p.cells) {
            rec.simCycles += cellCycles(c);
            if (c.has("window_flits"))
                rec.flits += c.get("window_flits");
        }
    }
    double epochs = 0.0;
    for (const Part &p : parts)
        checkChurnEpochs(p, rec, epochs);
    rec.counts.emplace_back("chip.churn_epochs", epochs);

    QosCounts qos;
    if (fig4) {
        if (tr)
            fig4Probes(parts[0], tr, rec, qos);
    } else {
        // The adversarial and churn cells report no flit counts, so the
        // probes (which reproduce them exactly) count their flits.
        rec.flits = qosProbes(parts, o, tr, rec, qos);
    }
    qos.put(rec.counts);
    rec.counts.emplace_back("fabric.handoffs", 0.0);
    rec.counts.emplace_back("fabric.link_hops", 0.0);
    writeParts(parts, o, rec);
}

// ------------------------------------------------------ fabric workload

/// The default kilo-node fabric of examples/fabric_cli: 4 chips x 32x32
/// tiles x 2 DPS/PVC shared columns = 1024 routers, p2p links, bursty.
FabricConsolidationConfig
fabricConfig(std::uint64_t seed)
{
    FabricConsolidationConfig cfg;
    cfg.chips = 4;
    cfg.chip.tilesX = cfg.chip.tilesY = 32;
    cfg.chip.sharedColumns = {4, 12};
    cfg.ratePerNode = 0.15;
    cfg.remoteShare = 0.25;
    cfg.seed = seedFor(seed, cfg.seed);
    cfg.workload = *WorkloadSpec::parse("bursty");
    return cfg;
}

struct FabricJob {
    FabricSpec spec;
    TrafficConfig traffic;
};

/// runFabricConsolidation's set-up, step by step: per-chip hypervisors
/// admit the paper's three-VM mix and every column's flow registers are
/// programmed from the placements. Kept in step with
/// core/experiments.cpp; the digest pinned in perfbench/reference.json
/// (taken from runFabricConsolidation) catches any drift.
FabricJob
admitFabric(const FabricConsolidationConfig &cfg)
{
    FabricJob job;
    FabricSpec &spec = job.spec;
    spec.chips = cfg.chips;
    spec.chip = cfg.chip;
    spec.column = paperColumn(cfg.topology, cfg.mode);
    spec.links = cfg.links;

    const auto cats = fabricCatchments(spec.chip);
    const int B = static_cast<int>(cats.size());
    const int H = spec.chip.nodesY();
    int maxCat = 0;
    for (const auto &cat : cats)
        maxCat = std::max(maxCat, static_cast<int>(cat.size()));
    const int slots = 1 + maxCat + (cfg.chips > 1 ? cfg.chips - 1 : 0);
    const int fpb = H * slots;
    const int totalFlows = cfg.chips * B * fpb;

    const VmPlacement &pl = vmPlacements()[0];
    std::vector<OsScheduler> os;
    os.reserve(static_cast<std::size_t>(cfg.chips));
    for (int c = 0; c < cfg.chips; ++c) {
        os.emplace_back(spec.chip);
        for (const auto &s : pl.servers) {
            if (!os.back().createVm(s.id, s.threads, s.weight)) {
                std::fprintf(stderr, "perfbench: chip %d VM %d admission "
                                     "failed\n", c, s.id);
                std::exit(1);
            }
        }
        if (!os.back().coScheduleInvariant()) {
            std::fprintf(stderr, "perfbench: chip %d co-scheduling "
                                 "violated\n", c);
            std::exit(1);
        }
    }

    TrafficConfig &traffic = job.traffic;
    traffic.pattern = TrafficPattern::UniformRandom;
    traffic.injectionRate = cfg.ratePerNode;
    traffic.seed = cfg.seed;
    traffic.genUntil = cfg.phases.measureEnd();
    traffic.activeFlows.assign(static_cast<std::size_t>(totalFlows), false);
    traffic.flowRates.assign(static_cast<std::size_t>(totalFlows), 0.0);
    std::vector<std::uint32_t> weights(static_cast<std::size_t>(totalFlows),
                                       1);
    const auto programFlow = [&](int f, int srcChip, int x, int y,
                                 double rate) {
        const OsScheduler &chipOs = os[static_cast<std::size_t>(srcChip)];
        const int owner = chipOs.ownerOf(NodeCoord{x, y});
        if (owner < 0)
            return;
        const auto fi = static_cast<std::size_t>(f);
        traffic.activeFlows[fi] = true;
        traffic.flowRates[fi] = rate;
        weights[fi] = chipOs.vm(owner)->weight;
    };
    for (int c = 0; c < cfg.chips; ++c) {
        for (int j = 0; j < B; ++j) {
            const auto &cat = cats[static_cast<std::size_t>(j)];
            const int g = c * B + j;
            for (int y = 0; y < H; ++y) {
                for (std::size_t i = 0; i < cat.size(); ++i) {
                    programFlow(g * fpb + y * slots + 1 +
                                    static_cast<int>(i),
                                c, cat[i], y, cfg.ratePerNode);
                }
                for (int r = 0; r + 1 < cfg.chips; ++r) {
                    programFlow(g * fpb + y * slots + 1 + maxCat + r,
                                (c + 1 + r) % cfg.chips, cat.front(), y,
                                cfg.remoteShare * cfg.ratePerNode);
                }
            }
        }
    }
    spec.column.pvc.weights = weights;
    return job;
}

std::unique_ptr<FabricSim>
setUpFabric(const FabricConsolidationConfig &cfg, Tracer *tr, int parent,
            FabricJob *jobOut = nullptr)
{
    FabricJob job;
    {
        Scope s(tr, "chip.admit", parent, 0);
        job = admitFabric(cfg);
    }
    Scope s(tr, "sim.build", parent, 0);
    auto sim = std::make_unique<FabricSim>(job.spec, job.traffic,
                                           cfg.workload);
    sim->configure({.shards = cfg.shards});
    sim->setMeasureWindow(cfg.phases.warmup, cfg.phases.measureEnd());
    s.attr("routers", sim->net().numNodes());
    if (jobOut != nullptr)
        *jobOut = std::move(job);
    return sim;
}

struct FabricOutcome {
    Cycle drain = kNoCycle;
    std::uint64_t digest = 0;
};

FabricOutcome
runFabric(FabricSim &sim, const RunPhases &ph, Tracer *tr, int parent,
          GaugeLog *gauge = nullptr)
{
    runPhases(sim, ph, ph.measureEnd(), tr, parent, 0, gauge);
    FabricOutcome out;
    out.drain = drainPhase(sim, ph.total() * 4 - ph.measureEnd(),
                           ph.measureEnd(), tr, parent, 0);
    {
        Scope s(tr, "sim.check", parent, 0);
        sim.checkInvariants();
    }
    out.digest = metricsDigest(sim.metrics());
    return out;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
runFabricWorkload(const Options &o, Record &rec, Tracer *tr)
{
    const FabricConsolidationConfig cfg = fabricConfig(o.seed);
    rec.cells.push_back({"fabric", 0, "fabric/4x32x32/dps/pvc/bursty", {}});
    CellCheck &chk = rec.cells[0];

    FabricOutcome first;
    bool haveFirst = false;
    const auto check = [&](const FabricOutcome &out, const FabricSim &sim,
                           const char *what) {
        if (out.drain == kNoCycle || !sim.drained())
            chk.failures.push_back(std::string(what) + " did not drain");
        if (!haveFirst) {
            first = out;
            haveFirst = true;
        } else if (out.digest != first.digest || out.drain != first.drain) {
            chk.failures.push_back(std::string(what) + " digest " +
                                   hex64(out.digest) + " != " +
                                   hex64(first.digest));
        }
    };
    const auto record = [&](const FabricSim &sim) {
        const SimMetrics &m = sim.metrics();
        rec.simCycles = static_cast<double>(sim.now());
        rec.flits = static_cast<double>(m.windowFlits());
        QosCounts qos;
        qos.add(m);
        rec.counts.clear();
        rec.counts.emplace_back("chip.churn_epochs", 0.0);
        qos.put(rec.counts);
        rec.counts.emplace_back("fabric.handoffs",
                                static_cast<double>(sim.handoffs()));
        rec.counts.emplace_back("fabric.link_hops",
                                static_cast<double>(sim.linkHops()));
    };

    // Untraced repetitions: set-up then the run, each timed apart, each
    // on the next allowed CPU. Timed repetitions sample the gauge between
    // run chunks, on the same CPU, and leave its time out of the wall.
    const std::vector<int> cpus = allowedCpus();
    Gauge gauge;
    rec.gaugeKb = Gauge::kKb;
    const double t0 = nowNs();
    do {
        const PinnedTo pin(cpus[rec.setupS.size() % cpus.size()]);
        rec.setupGaugeS.push_back(gauge.sample());
        const double s0 = nowNs();
        auto sim = setUpFabric(cfg, nullptr, -1);
        rec.setupS.push_back(secondsSince(s0));
        GaugeLog log{&gauge, {}, 0.0};
        const double r0 = nowNs();
        const FabricOutcome out =
            runFabric(*sim, cfg.phases, nullptr, -1, tr ? nullptr : &log);
        const double wall = secondsSince(r0) - log.spentS;
        if (tr) {
            rec.untracedWallS = secondsSince(s0);
        } else {
            rec.repWallS.push_back(wall);
            rec.repGaugeS.push_back(median(log.samples));
        }
        check(out, *sim, "untraced run");
        record(*sim);
    } while (!tr && secondsSince(t0) + rec.repWallS.back() <= o.seconds);
    rec.digest = hex64(first.digest);

    if (!tr) {
        // More set-up samples than repetitions: set-up is the benchmark's
        // most fragile number, so it gets its median over several.
        while (rec.setupS.size() < kSetupSamples) {
            const PinnedTo pin(cpus[rec.setupS.size() % cpus.size()]);
            rec.setupGaugeS.push_back(gauge.sample());
            const double s0 = nowNs();
            auto sim = setUpFabric(cfg, nullptr, -1);
            rec.setupS.push_back(secondsSince(s0));
        }
        return;
    }

    // Traced run: the fabric is one cell on one thread, on the CPU the
    // untraced run used.
    const double c0 = nowNs();
    {
        const PinnedTo pin(cpus[0]);
        Scope sweep(tr, "exp.sweep");
        sweep.attr("workers", 1);
        Scope cell(tr, "exp.cell", sweep.id(), 0);
        auto sim = setUpFabric(cfg, tr, cell.id());
        const FabricOutcome out = runFabric(*sim, cfg.phases, tr, cell.id());
        cell.attr("cycles", static_cast<double>(sim->now()));
        cell.attr("flits", static_cast<double>(sim->metrics().windowFlits()));
        check(out, *sim, "traced run");
    }
    rec.tracedWallS = secondsSince(c0);

    // Probes: the topology build alone, and the bursty source alone.
    Scope probe(tr, "bench.probe", -1, 0);
    FabricJob job;
    auto idle = setUpFabric(cfg, nullptr, -1, &job);
    {
        Scope s(tr, "topo.build", probe.id(), 0);
        const auto net = FabricNetwork::build(job.spec);
        s.attr("routers", net->numNodes());
    }
    trafficProbe(*idle, idle->traffic(), cfg.phases.measureEnd(), tr,
                 probe.id(), 0);
}

// -------------------------------------------------------------- output

void
writeRecord(const Options &o, const Record &rec, const Tracer *tr)
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", o.workload);
    w.field("seed", static_cast<std::uint64_t>(o.seed));
    w.field("trace", o.trace);
    w.field("workers", o.workers);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("peak_rss_kb", peakRssKb());
    w.field("gauge_kb", rec.gaugeKb);
    w.field("sim_cycles", rec.simCycles);
    w.field("flits", rec.flits);
    w.field("untraced_wall_s", rec.untracedWallS);
    w.field("traced_wall_s", rec.tracedWallS);
    if (!rec.digest.empty())
        w.field("digest", rec.digest);
    w.beginArray("setup_s");
    for (double v : rec.setupS)
        w.value(v);
    w.endArray();
    w.beginArray("setup_gauge_s");
    for (double v : rec.setupGaugeS)
        w.value(v);
    w.endArray();
    w.beginArray("rep_wall_s");
    for (double v : rec.repWallS)
        w.value(v);
    w.endArray();
    w.beginArray("rep_gauge_s");
    for (double v : rec.repGaugeS)
        w.value(v);
    w.endArray();
    w.beginObject("counts");
    for (const auto &[k, v] : rec.counts)
        w.field(k, v);
    w.endObject();
    w.beginArray("parts");
    for (const PartFile &p : rec.parts) {
        w.beginObject();
        w.field("name", p.name);
        w.field("file", p.file);
        w.field("ref", p.ref);
        w.endObject();
    }
    w.endArray();
    w.beginArray("cells");
    for (const CellCheck &c : rec.cells) {
        w.beginObject();
        w.field("part", c.part);
        w.field("index", c.index);
        w.field("label", c.label);
        w.beginArray("failures");
        for (const auto &f : c.failures)
            w.value(f);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    if (!writeTextFile(o.out + "/record.json", w.str() + "\n"))
        std::exit(1);

    if (tr == nullptr)
        return;
    JsonWriter sw;
    sw.beginArray();
    for (const Span &s : tr->spans()) {
        sw.beginObject();
        sw.field("name", s.name);
        sw.field("start_ns", s.start);
        sw.field("end_ns", s.end);
        sw.field("parent", s.parent);
        sw.field("cell", s.cell);
        sw.beginObject("attrs");
        for (const auto &[k, v] : s.attrs)
            sw.field(k, v);
        sw.endObject();
        sw.endObject();
    }
    sw.endArray();
    if (!writeTextFile(o.out + "/spans.json", sw.str() + "\n"))
        std::exit(1);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "fig4_grid|fabric_bursty|qos_adversarial --seed N "
                 "--seconds S --trace 0|1 --out DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i += 2) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (k == "--out") {
            o.out = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
        if (end != nullptr && (*end != '\0' || v.empty()))
            usage(("bad number for " + k + ": " + v).c_str());
    }
    if (o.workload != "fig4_grid" && o.workload != "fabric_bursty" &&
        o.workload != "qos_adversarial") {
        usage(("unknown workload '" + o.workload + "'").c_str());
    }
    if (o.out.empty())
        usage("--out is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to time a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    Options o = parseArgs(argc, argv);
    // Every workload is one batch job using at most nproc threads,
    // capped at four so results compare across machine sizes.
    o.workers = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

    Tracer tracer;
    Tracer *tr = o.trace ? &tracer : nullptr;
    Record rec;
    if (o.workload == "fabric_bursty")
        runFabricWorkload(o, rec, tr);
    else
        runSweepWorkload(o, rec, tr);
    writeRecord(o, rec, tr);
    return 0;
}
