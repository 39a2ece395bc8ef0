/**
 * @file
 * apsim: the general-purpose simulator driver.
 *
 *   ./apsim [options] <workload> [workload ...]
 *
 * Runs one workload (or several, consolidated round-robin) under one
 * configuration and prints the run summary; --stats dumps the full
 * gem5-style statistics tree.
 *
 * Options (key=value, see sim/config.hh): mode=, page=, pwc=, ntlb=,
 * hw_opts=, unsync=, back_policy=, walk_ref_cycles=, verify=, ...
 * plus --ops N, --footprint MB, --seed N, --quantum N, --stats,
 * --stats-json=<path> (full stats tree as versioned JSON),
 * --trace-walks=<path> (per-miss walk trace; summarize with walksum),
 * --trace-capacity N (walk-trace ring size, default 1Mi records),
 * --snapshot-dir=<dir> (run the cell through a CellEngine persisting
 * to <dir>, an existing directory: the recorded operation stream as
 * an APTRACE2 file and the warm-boundary machine image as an APSNAP
 * file; a repeat invocation with the same workloads/config loads both
 * and runs only the measured region, bit-identical to the cold run).
 * Misuse (unknown flags, options or workloads, malformed numbers, a
 * zero quantum, a missing snapshot directory) exits 2 with usage.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/trace_cache.hh"
#include "trace/walk_trace.hh"
#include "workloads/consolidated.hh"

namespace
{

/** Print @p why and the usage, then exit 2 (the CLI misuse code). */
[[noreturn]] void
usage(const std::string &why)
{
    if (!why.empty())
        std::cerr << "apsim: " << why << "\n";
    std::cerr << "usage: apsim [options] <workload> [workload ...]\n"
              << "options: key=value (see sim/config.hh), --ops N,"
                 " --footprint MB, --seed N, --quantum N, --stats,\n"
                 "         --stats-json PATH, --trace-walks PATH,"
                 " --trace-capacity N, --snapshot-dir DIR\n"
              << "workloads:";
    for (const auto &n : ap::workloadNames())
        std::cerr << " " << n;
    std::cerr << "\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);

    std::vector<std::string> workload_names;
    std::uint64_t ops = 0;
    std::uint64_t footprint_mb = 0;
    std::uint64_t seed = 42;
    std::uint64_t quantum = 2'000;
    std::uint64_t trace_capacity = 1u << 20;
    bool dump_stats = false;
    std::string stats_json_path;
    std::string trace_walks_path;
    std::string snapshot_dir;
    std::vector<std::string> options;

    const char *const value_flags[] = {
        "--ops",          "--footprint",  "--seed",
        "--quantum",      "--trace-capacity",
        "--stats-json",   "--trace-walks", "--snapshot-dir"};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--stats") {
            dump_stats = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            if (arg.find('=') != std::string::npos)
                options.push_back(arg);
            else
                workload_names.push_back(arg);
            continue;
        }
        // `--flag value` or `--flag=value`.
        std::string flag = arg.substr(0, arg.find('='));
        bool known = false;
        for (const char *f : value_flags)
            known |= flag == f;
        if (!known)
            usage("unknown flag '" + arg + "'");
        std::string v;
        if (flag.size() < arg.size())
            v = arg.substr(flag.size() + 1);
        else if (i + 1 < argc)
            v = argv[++i];
        if (v.empty())
            usage(flag + " needs a value");
        auto numeric = [&](std::uint64_t &out) {
            if (!ap::parseU64(v, out))
                usage("bad value for " + flag + ": '" + v +
                      "' (expected a non-negative integer)");
        };
        if (flag == "--ops")
            numeric(ops);
        else if (flag == "--footprint")
            numeric(footprint_mb);
        else if (flag == "--seed")
            numeric(seed);
        else if (flag == "--quantum")
            numeric(quantum);
        else if (flag == "--trace-capacity")
            numeric(trace_capacity);
        else if (flag == "--stats-json")
            stats_json_path = v;
        else if (flag == "--trace-walks")
            trace_walks_path = v;
        else
            snapshot_dir = v;
    }
    if (workload_names.empty())
        usage("no workload given");
    if (quantum == 0)
        usage("--quantum must be at least 1");
    if (trace_capacity == 0)
        usage("--trace-capacity must be at least 1");
    // Kept in bytes: footprint_mb << 20 must not overflow.
    if (footprint_mb >= (1ull << 44))
        usage("--footprint must be below 2^44 MB");
    std::error_code ec;
    if (!snapshot_dir.empty() &&
        !std::filesystem::is_directory(snapshot_dir, ec))
        usage("--snapshot-dir '" + snapshot_dir +
              "' is not an existing directory");

    // Build per-workload parameters and a machine sized for the sum.
    std::vector<std::unique_ptr<ap::Workload>> workloads;
    ap::WorkloadParams sizing;
    for (const std::string &name : workload_names) {
        // defaultParamsFor treats an unknown name as fatal; ask the
        // registry first so it is a usage error.
        if (!ap::makeWorkload(name, ap::WorkloadParams{}))
            usage("unknown workload: " + name);
        ap::WorkloadParams p = ap::defaultParamsFor(name);
        if (ops)
            p.operations = ops;
        if (footprint_mb)
            p.footprintBytes = footprint_mb << 20;
        p.seed = seed;
        auto w = ap::makeWorkload(name, p);
        if (workloads.empty())
            sizing = p;
        else
            sizing.footprintBytes += p.footprintBytes;
        workloads.push_back(std::move(w));
    }
    ap::SimConfig cfg = ap::configFor(ap::VirtMode::Agile,
                                      ap::PageSize::Size4K, sizing);
    for (const std::string &opt : options) {
        if (!cfg.applyOption(opt))
            usage("unknown option: " + opt);
    }

    const bool consolidated = workloads.size() > 1;
    std::unique_ptr<ap::Workload> workload =
        consolidated ? std::make_unique<ap::ConsolidatedWorkload>(
                           std::move(workloads), quantum,
                           cfg.warmupFraction)
                     : std::move(workloads[0]);

    ap::Machine machine(cfg);
    if (!trace_walks_path.empty())
        machine.enableWalkTrace(trace_capacity);
    ap::RunResult result;
    if (snapshot_dir.empty()) {
        result = machine.run(*workload);
    } else {
        ap::CellEngine engine(snapshot_dir);
        result = engine.run(workload->name(), *workload, machine);
        // Warm: the trace and the image both came from the directory.
        bool warm = engine.traces().records() == 0 &&
                    engine.snapshots().captures() == 0;
        std::cout << "snapshot: "
                  << (warm ? "restored warm image, measured region only"
                           : "captured warm image")
                  << "\n";
    }
    if (consolidated)
        result.workload = "consolidated";

    std::vector<ap::RunResult> rs{result};
    ap::printFigure5(std::cout, rs);
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "\nTLB misses: " << result.tlbMisses
              << ", walks: " << result.walks
              << ", avg refs/walk: " << result.avgWalkRefs
              << ", VM exits: " << result.traps << "\n";
    std::cout << "mode coverage (shadow/8/12/16/20/nested):";
    for (double c : result.coverage)
        std::cout << " " << c * 100 << "%";
    std::cout << "\n";

    if (dump_stats) {
        std::cout << "\n";
        machine.dump(std::cout);
    }
    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::cerr << "cannot write " << stats_json_path << "\n";
            return 1;
        }
        machine.dumpJson(os);
        std::cout << "stats json: " << stats_json_path << "\n";
    }
    if (!trace_walks_path.empty()) {
        if (!ap::writeWalkTraceFile(*machine.walkTrace(),
                                    trace_walks_path)) {
            std::cerr << "cannot write " << trace_walks_path << "\n";
            return 1;
        }
        std::cout << "walk trace: " << trace_walks_path << " ("
                  << machine.walkTrace()->size() << " records, "
                  << machine.walkTrace()->dropped()
                  << " dropped)\n";
    }
    return 0;
}
