/**
 * @file
 * Policy explorer: sweeps the agile paging policy knobs (interval
 * length, write-burst threshold, back-policy, hysteresis) on one
 * workload and prints the overhead surface — the tool you would use
 * to re-tune Section III-C's policies for a new workload.
 *
 * All sweep cells are independent machines, so they fan out across
 * worker threads; jobs=0 uses every hardware thread. Every cell
 * replays one shared recorded trace (the policy knobs never change
 * the operation stream). Cells that share a full config (the baseline
 * point appears in all three sweeps) additionally fork one warm
 * machine image instead of re-running warmup; --snapshot-dir (an
 * existing directory) persists the trace and those images across
 * invocations.
 *
 *   ./policy_explorer [workload] [ops] [jobs] [--snapshot-dir DIR]
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"

namespace
{

using namespace ap;

/** One cell of the sweep surface. */
struct PolicyCell
{
    Tick interval;
    std::uint32_t threshold;
    BackPolicy back;
    std::uint32_t hysteresis;
};

double
run(CellEngine &engine, const std::string &wl, std::uint64_t ops,
    const PolicyCell &cell)
{
    WorkloadParams params = defaultParamsFor(wl);
    params.operations = ops;
    SimConfig cfg = configFor(VirtMode::Agile, PageSize::Size4K, params);
    cfg.policyIntervalOps = cell.interval;
    cfg.policy.writeThreshold = cell.threshold;
    cfg.policy.backPolicy = cell.back;
    cfg.policy.promoteAfterCleanIntervals = cell.hysteresis;
    return engine.run(wl, params, cfg).totalOverhead();
}

int
usage()
{
    std::cerr << "usage: policy_explorer [workload] [ops] [jobs]"
                 " [--snapshot-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    std::string snapshot_dir;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--snapshot-dir") && i + 1 < argc)
            snapshot_dir = argv[++i];
        else if (argv[i][0] == '-')
            return usage();
        else
            pos.push_back(argv[i]);
    }
    std::string wl = pos.size() > 0 ? pos[0] : "dedup";
    std::uint64_t ops = 600'000;
    std::uint64_t jobs = 1;
    if (pos.size() > 3 || (pos.size() > 1 && !ap::parseU64(pos[1], ops)) ||
        (pos.size() > 2 && !ap::parseU64(pos[2], jobs)))
        return usage();

    const ap::Tick intervals[] = {25'000, 50'000, 100'000, 200'000,
                                  400'000};
    const std::uint32_t hystereses[] = {1, 2, 4, 8, 16};
    struct
    {
        const char *name;
        ap::BackPolicy bp;
    } policies[] = {{"none", ap::BackPolicy::None},
                    {"periodic", ap::BackPolicy::PeriodicReset},
                    {"dirty", ap::BackPolicy::DirtyScan}};
    const std::uint32_t thresholds[] = {1, 2, 4};

    // Flatten the three sweeps into one work list so a single pool
    // covers them all; results print from their index slots.
    std::vector<PolicyCell> cells;
    for (ap::Tick interval : intervals)
        cells.push_back({interval, 2, ap::BackPolicy::DirtyScan, 8});
    for (std::uint32_t h : hystereses)
        cells.push_back({200'000, 2, ap::BackPolicy::DirtyScan, h});
    for (auto &p : policies)
        for (std::uint32_t thr : thresholds)
            cells.push_back({200'000, thr, p.bp, 8});

    std::error_code ec;
    if (!snapshot_dir.empty() &&
        !std::filesystem::is_directory(snapshot_dir, ec)) {
        std::cerr << "policy_explorer: --snapshot-dir '" << snapshot_dir
                  << "' is not an existing directory\n";
        return 2;
    }

    // Every cell shares one (workload, ops, seed, 4K) stream: the
    // first records it, the other ~22 replay through the fast path.
    // The baseline policy point recurs in all three sweeps, so those
    // cells share one warm image through the snapshot cache.
    ap::CellEngine engine(snapshot_dir);
    std::vector<double> overhead = ap::parallelMap(
        cells.size(), static_cast<unsigned>(jobs),
        [&](std::size_t i) { return run(engine, wl, ops, cells[i]); });

    std::printf("agile policy sweep on %s (%lu ops); cells are total "
                "overhead\n\n",
                wl.c_str(), static_cast<unsigned long>(ops));

    std::size_t at = 0;
    std::printf("interval sweep (threshold=2, dirty-scan, "
                "hysteresis=8):\n");
    for (ap::Tick interval : intervals) {
        std::printf("  interval=%-7lu  %6.1f%%\n",
                    static_cast<unsigned long>(interval),
                    overhead[at++] * 100);
    }

    std::printf("\nhysteresis sweep (interval=200k, threshold=2, "
                "dirty-scan):\n");
    for (std::uint32_t h : hystereses) {
        std::printf("  hysteresis=%-3u  %6.1f%%\n", h,
                    overhead[at++] * 100);
    }

    std::printf("\nback-policy x threshold matrix (interval=200k):\n");
    std::printf("  %-10s %8s %8s %8s\n", "", "thr=1", "thr=2", "thr=4");
    for (auto &p : policies) {
        std::printf("  %-10s", p.name);
        for (std::uint32_t thr : thresholds) {
            (void)thr;
            std::printf(" %7.1f%%", overhead[at++] * 100);
        }
        std::printf("\n");
    }
    std::printf("\n[traces: %llu recorded, %llu replayed; snapshots: "
                "%llu captured, %llu forked, %llu from disk]\n",
                static_cast<unsigned long long>(engine.traces().records()),
                static_cast<unsigned long long>(engine.traces().replays()),
                static_cast<unsigned long long>(
                    engine.snapshots().captures()),
                static_cast<unsigned long long>(engine.snapshots().forks()),
                static_cast<unsigned long long>(
                    engine.snapshots().diskLoads()));
    return 0;
}
