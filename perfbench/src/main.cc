/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--reference DIR] [--spans PATH]
 *        perfbench --write-reference DIR --workload NAME --seed N
 *
 * A run sets the workload up kSetupRepeats times (each from nothing,
 * each ending in an untimed warm pass), then runs timed passes until
 * --seconds have passed and every reported percentile has at least ten
 * samples beyond it. Every cell of every pass is checked against the
 * plain runExperiment path for the same seed, and against the
 * committed reference digests when DIR holds them for this seed. The
 * last stdout line is one JSON object: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1. A traced run sends every
 * cell through the harness's instrumented copies of the library entry
 * points (cells.hh), alternates passes with spans off and on, and
 * writes its spans to PATH.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "benches.hh"
#include "cells.hh"
#include "harness.hh"
#include "sim/config.hh"

namespace
{

using namespace perfbench;

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Timed samples needed for a p90 with ten samples beyond it. */
constexpr std::size_t kMinSamples = 100;
/** Sweeps over the generators behind workloads.gen_ns_per_op. */
constexpr int kGenRepeats = 5;
/** Give up (no result) if the timed region runs this long. */
constexpr double kMaxTimedS = 120;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    std::uint64_t seconds = 10;
    bool trace = false;
    bool traceSet = false;
    std::string referenceDir;
    std::string spansPath;
    std::string writeReferenceDir;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference DIR] [--spans PATH]\n"
                 "       perfbench --write-reference DIR --workload NAME "
                 "--seed N\nworkloads:";
    for (const std::string &n : benchNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        std::uint64_t n = 0;
        bool numeric = ap::parseU64(v, n);
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed" && numeric) {
            o.seed = n;
        } else if (a == "--seconds" && numeric && n >= 1 && n <= 60) {
            o.seconds = n;
        } else if (a == "--trace" && numeric && n <= 1) {
            o.trace = n == 1;
            o.traceSet = true;
        } else if (a == "--reference") {
            o.referenceDir = v;
        } else if (a == "--spans") {
            o.spansPath = v;
        } else if (a == "--write-reference") {
            o.writeReferenceDir = v;
        } else {
            usage(("bad argument " + a + " " + v).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

std::string
cellLabel(const ap::ExperimentSpec &s)
{
    std::ostringstream os;
    os << s.workload << "/" << ap::virtModeName(s.mode) << "/"
       << ap::pageSizeName(s.pageSize) << "/" << s.numVcpus << "vcpu/"
       << ap::tlbCoherenceName(s.tlbCoherence) << "/" << s.operations;
    return os.str();
}

std::string
referencePath(const std::string &dir, const Bench &b)
{
    return dir + "/" + b.referenceSet() + ".seed" +
           std::to_string(b.seed()) + ".txt";
}

/**
 * Load committed digests for @p b's cells. @return false if the file
 * does not exist; throws if it exists but describes other cells.
 */
bool
loadReference(const std::string &path, const Bench &b,
              std::vector<std::uint64_t> &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string label, hex;
    for (const ap::ExperimentSpec &s : b.cells()) {
        if (!(is >> label >> hex) || label != cellLabel(s))
            throw std::runtime_error(path + ": does not match cell " +
                                     cellLabel(s));
        out.push_back(std::stoull(hex, nullptr, 16));
    }
    return true;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

/** Sums over a set of results (one pass worth of verified cells). */
struct RunTotals
{
    double instructions = 0, tlbMisses = 0, walks = 0, walkRefs = 0;
    double traps = 0, trapCycles = 0, allCycles = 0, faults = 0;
    double shootdowns = 0, remoteInval = 0;
    double agileWalks = 0, agileFullShadow = 0;

    explicit RunTotals(const std::vector<ap::RunResult> &runs)
    {
        for (const ap::RunResult &r : runs) {
            instructions += r.instructions;
            tlbMisses += r.tlbMisses;
            walks += r.walks;
            walkRefs += r.avgWalkRefs * r.walks;
            traps += r.traps;
            trapCycles += r.trapCycles;
            allCycles += r.idealCycles + r.walkCycles + r.trapCycles +
                         r.coherenceCycles;
            faults += r.guestPageFaults;
            shootdowns += r.shootdowns;
            remoteInval += r.remoteInvalidations;
            if (r.mode == ap::VirtMode::Agile) {
                agileWalks += r.walks;
                agileFullShadow += r.coverage[0] * r.walks;
            }
        }
    }

    double
    perKacc(double n) const
    {
        return instructions ? n / instructions * 1e3 : 0;
    }
};

/**
 * The paper's claim as one number: over matrix rows (cells sharing
 * workload, page size, vCPUs and coherence model), the geometric mean
 * of agile slowdown / min(nested, shadow) slowdown.
 */
double
agileVsBest(const std::vector<ap::ExperimentSpec> &cells,
            const std::vector<ap::RunResult> &runs)
{
    std::map<std::string, std::map<ap::VirtMode, double>> rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ap::ExperimentSpec &s = cells[i];
        std::string row = s.workload + "/" + ap::pageSizeName(s.pageSize) +
                          "/" + ap::tlbCoherenceName(s.tlbCoherence);
        rows[row][s.mode] = runs[i].slowdown();
    }
    double log_sum = 0;
    int n = 0;
    for (auto &[row, by_mode] : rows) {
        double best = std::min(by_mode.at(ap::VirtMode::Nested),
                               by_mode.at(ap::VirtMode::Shadow));
        log_sum += std::log(by_mode.at(ap::VirtMode::Agile) / best);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0;
}

double
requirePercentile(const std::vector<double> &v, double p)
{
    double out = 0;
    std::string err;
    if (!percentile(v, p, out, &err))
        throw std::runtime_error(err);
    return out;
}

std::vector<double>
concat(const std::vector<PassResult> &passes,
       std::vector<double> PassResult::*field)
{
    std::vector<double> out;
    for (const PassResult &p : passes)
        out.insert(out.end(), (p.*field).begin(), (p.*field).end());
    return out;
}

int
writeReference(const Options &o, Bench &b)
{
    auto runs = runPlainCells(b.cells(), b.seed());
    std::string path = referencePath(o.writeReferenceDir, b);
    std::ofstream os(path);
    for (std::size_t i = 0; i < runs.size(); ++i)
        os << cellLabel(b.cells()[i]) << " "
           << hexDigest(runDigest(runs[i])) << "\n";
    if (!os) {
        std::cerr << "perfbench: cannot write " << path << "\n";
        return 1;
    }
    std::cerr << "perfbench: wrote " << path << "\n";
    return 0;
}

int
run(const Options &o)
{
    std::unique_ptr<Bench> bench = makeBench(o.workload, o.seed);
    if (!bench)
        usage(("unknown workload " + o.workload).c_str());
    if (!o.writeReferenceDir.empty())
        return writeReference(o, *bench);
    if (!o.traceSet)
        usage("--trace is required");

    const auto &cells = bench->cells();
    double probe_before = cpuProbeMs();

    // Set-up, repeated from nothing so its time has a median. The
    // traced run sets up once, with spans, and keeps those spans apart
    // from the timed passes' spans.
    std::vector<PassResult> checked; // every pass whose cells are checked
    std::vector<double> setup_s;
    spanLog().enable(o.trace);
    for (int k = 0; k < (o.trace ? 1 : kSetupRepeats); ++k) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<PassResult> warm = bench->setup(o.trace);
        setup_s.push_back(secondsSince(t0));
        checked.insert(checked.end(), warm.begin(), warm.end());
    }
    std::vector<SpanRecord> setup_spans = spanLog().spans();
    LayerCounters setup_counters = bench->layerCounters();

    // Timed region. Untraced runs time every pass. Traced runs take
    // every pass through the instrumented copies and alternate spans
    // off and on, so the pair gives the cost of the spans alone under
    // the same host conditions.
    std::vector<PassResult> timed, traced;
    auto t_start = std::chrono::steady_clock::now();
    bool next_traced = false;
    for (;;) {
        bool tr = o.trace && next_traced;
        spanLog().enable(tr);
        PassResult pr = bench->pass(o.trace);
        (tr ? traced : timed).push_back(pr);
        checked.push_back(std::move(pr));
        next_traced = !next_traced;

        std::size_t cells_done = concat(timed, &PassResult::cellMs).size();
        std::size_t reqs = concat(checked, &PassResult::reqMs).size();
        bool enough = cells_done >= kMinSamples &&
                      (reqs == 0 || reqs >= kMinSamples) &&
                      (!o.trace || !traced.empty());
        double elapsed = secondsSince(t_start);
        if (elapsed >= o.seconds && enough)
            break;
        if (elapsed > kMaxTimedS) {
            std::cerr << "perfbench: too few samples after " << elapsed
                      << " s\n";
            return 1;
        }
    }
    spanLog().enable(false);
    double peak_rss = bench->peakRssMb();
    LayerCounters counters = bench->layerCounters();
    bench->finish();

    // Check every cell against the plain path for the same seed, and
    // the plain path against the committed digests for this seed.
    std::vector<ap::RunResult> plain =
        runPlainCells(cells, bench->seed());
    std::vector<std::uint64_t> expected;
    for (const ap::RunResult &r : plain)
        expected.push_back(runDigest(r));
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::vector<std::uint64_t> committed;
    if (!o.referenceDir.empty() &&
        loadReference(referencePath(o.referenceDir, *bench), *bench,
                      committed)) {
        std::size_t bad = digestMismatches(expected, committed);
        if (bad) {
            std::cerr << "perfbench: plain path differs from the committed "
                         "reference in "
                      << bad << " cells\n";
            correct = false;
            attempted += cells.size();
            failed += bad;
        }
        expected = committed;
    }
    for (const PassResult &p : checked) {
        attempted += p.digests.size();
        failed += digestMismatches(p.digests, expected);
    }
    if (failed)
        correct = false;
    std::cerr << "perfbench: " << o.workload << " seed " << bench->seed()
              << ": " << timed.size() << " timed passes, " << attempted
              << " cells checked, " << failed << " failed"
              << (committed.empty() ? "" : " (committed reference)")
              << "\n";

    RunTotals totals(plain);
    std::vector<double> cell_ms = concat(timed, &PassResult::cellMs);
    double probe_after = cpuProbeMs();

    std::vector<Metric> m;
    if (!o.trace) {
        std::vector<double> rate;
        for (const PassResult &p : timed)
            rate.push_back(totals.instructions / p.wallS);
        std::cerr << "perfbench: " << cell_ms.size()
                  << " cell samples; pass seconds:";
        for (const PassResult &p : timed)
            std::cerr << " " << p.wallS;
        std::cerr << "\n";
        m = {
            {"accesses_per_s", median(rate), "1/s"},
            {"cell_ms_p50", median(cell_ms), "ms"},
            {"cell_ms_p90", requirePercentile(cell_ms, 90), "ms"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peak_rss, "MiB"},
            {"agile_vs_best", agileVsBest(cells, plain), "x"},
        };
        printResult(correct, attempted, failed, m);
        return 0;
    }

    // Per-layer numbers from the traced run. A per-call figure comes
    // from the timed passes' spans; a call those passes never make
    // (on fig5-fork: construct, warmup, capture, record, compile)
    // comes from the set-up's spans. The two sets are never mixed.
    std::vector<SpanRecord> all_spans = spanLog().spans();
    auto self = selfTimes(std::vector<SpanRecord>(
        all_spans.begin() + setup_spans.size(), all_spans.end()));
    auto setup_self = selfTimes(setup_spans);
    auto at = [](std::map<std::string, SelfTime> &t, const char *n) {
        return t[n];
    };
    auto layer = [&](const char *n) {
        SelfTime t = at(self, n);
        return t.calls ? t : at(setup_self, n);
    };

    // Workload generators alone, against the counting stub host: the
    // median of kGenRepeats sweeps over the workload's generators.
    std::map<std::string, ap::WorkloadParams> generators;
    for (const ap::ExperimentSpec &s : cells)
        generators.emplace(s.workload, cellParams(s, bench->seed()));
    std::vector<double> gen_ns_per_call;
    for (int rep = 0; rep < kGenRepeats; ++rep) {
        std::uint64_t calls = 0;
        std::int64_t t0 = nowNs();
        for (const auto &[wl, params] : generators)
            calls += driveGenerator(wl, params);
        gen_ns_per_call.push_back(double(nowNs() - t0) / calls);
    }

    // Busy share of the set-up's cell threads: cell time not spent
    // blocked on another cell's recording or capture.
    double busy_ns = 0;
    for (const SpanRecord &s : setup_spans) {
        if (s.name == "cell")
            busy_ns += double(s.endNs - s.startNs);
    }
    busy_ns -= at(setup_self, "trace.wait").ns +
               at(setup_self, "sim.snapshot_wait").ns;
    double busy_frac =
        busy_ns > 0 ? busy_ns / (kThreads * setup_s[0] * 1e9) : 0;

    std::vector<double> tr_wall, un_wall;
    for (const PassResult &p : traced)
        tr_wall.push_back(p.wallS);
    for (const PassResult &p : timed)
        un_wall.push_back(p.wallS);

    std::vector<double> req_ms = concat(checked, &PassResult::reqMs);
    std::vector<double> first_ms = concat(checked, &PassResult::firstFrameMs);
    double records = setup_counters["trace.records"];
    double replays = setup_counters["trace.replays"];
    double svc_cells = counters["service.cells"];
    double svc_batches = counters["service.batches"];
    bool service = !req_ms.empty();

    m = {
        {"host.cpu_probe_ms", (probe_before + probe_after) / 2, "ms"},
        {"host.cpu_probe_drift", probe_after / probe_before, "x"},
        {"host.trace_overhead", median(tr_wall) / median(un_wall), "x"},
        {"workloads.gen_ns_per_op", median(gen_ns_per_call), "ns"},
        {"sim.construct_ms", layer("sim.construct").msPerCall(), "ms"},
        {"sim.warmup_ms", layer("sim.warmup").msPerCall(), "ms"},
        {"sim.measured_ns_per_access", layer("sim.measured").nsPerWork(),
         "ns"},
        {"sim.teardown_ms", layer("sim.teardown").msPerCall(), "ms"},
        {"sim.capture_ms", layer("sim.capture").msPerCall(), "ms"},
        {"sim.restore_ms", layer("sim.restore").msPerCall(), "ms"},
        {"sim.pool_reuse_frac", counters["sim.pool_reuse_frac"], "frac"},
        {"sim.thread_busy_frac", busy_frac, "frac"},
        {"trace.record_ns_per_op", layer("trace.record").nsPerWork(),
         "ns"},
        {"trace.compile_ms", layer("trace.compile").msPerCall(), "ms"},
        {"trace.resume_ms", layer("trace.resume").msPerCall(), "ms"},
        {"trace.wait_ms", at(setup_self, "trace.wait").ns / 1e6, "ms"},
        {"trace.replay_frac",
         records + replays ? replays / (records + replays) : 0, "frac"},
        {"service.first_frame_ms", service ? median(first_ms) : 0, "ms"},
        {"service.req_ms_p50", service ? median(req_ms) : 0, "ms"},
        {"service.req_ms_p90",
         service ? requirePercentile(req_ms, 90) : 0, "ms"},
        {"service.affinity_hit_frac",
         svc_cells ? counters["service.affinity_hits"] / svc_cells : 0,
         "frac"},
        {"service.steals_per_batch",
         svc_batches ? counters["service.steals"] / svc_batches : 0,
         "count"},
        {"service.cell_retries", counters["service.cell_retries"], "count"},
        {"tlb.misses_per_kacc", totals.perKacc(totals.tlbMisses), "1/kacc"},
        {"walker.walks_per_kacc", totals.perKacc(totals.walks), "1/kacc"},
        {"walker.refs_per_walk",
         totals.walks ? totals.walkRefs / totals.walks : 0, "refs"},
        {"vmm.traps_per_kacc", totals.perKacc(totals.traps), "1/kacc"},
        {"vmm.trap_cycle_share",
         totals.allCycles ? totals.trapCycles / totals.allCycles : 0,
         "frac"},
        {"guestos.faults_per_kacc", totals.perKacc(totals.faults),
         "1/kacc"},
        {"core.full_shadow_frac",
         totals.agileWalks ? totals.agileFullShadow / totals.agileWalks : 0,
         "frac"},
        {"tlb.shootdowns_per_kacc", totals.perKacc(totals.shootdowns),
         "1/kacc"},
        {"tlb.remote_inval_per_kacc", totals.perKacc(totals.remoteInval),
         "1/kacc"},
    };
    if (!o.spansPath.empty() && !spanLog().writeTsv(o.spansPath))
        std::cerr << "perfbench: cannot write " << o.spansPath << "\n";
    printResult(correct, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
