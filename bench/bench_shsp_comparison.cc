/**
 * @file
 * Reproduces the paper's SHSP discussion (Section VII-C): selective
 * hardware/software paging approximates the best of nested and shadow
 * per workload, while agile paging exceeds it — the temporal-only
 * switch cannot help workloads whose churn is *spatially* confined.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(1'000'000);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }

    // One row per workload, four cells per row, all independent.
    const ap::VirtMode modes[] = {ap::VirtMode::Nested,
                                  ap::VirtMode::Shadow,
                                  ap::VirtMode::Shsp,
                                  ap::VirtMode::Agile};
    std::vector<ap::ExperimentSpec> specs;
    for (const std::string &wl : ap::workloadNames()) {
        for (ap::VirtMode mode : modes) {
            ap::ExperimentSpec spec;
            spec.workload = wl;
            spec.mode = mode;
            spec.operations = opt.ops;
            spec.pageSize = opt.pageSize;
            specs.push_back(spec);
        }
    }
    // The four techniques per row share one operation stream: record
    // it once, replay it three times (batched). The snapshot cache
    // persists each cell's warm image under --snapshot-dir.
    ap::CellEngine engine = opt.engine();
    std::vector<ap::RunResult> runs = engine.runAll(specs, opt.jobs);

    std::printf("SHSP vs agile paging (4K pages)\n\n");
    std::printf("%-11s %8s %8s %8s %8s %8s   %s\n", "workload", "nested",
                "shadow", "best", "SHSP", "agile", "agile vs SHSP");
    double geo = 1.0;
    int n = 0;
    for (std::size_t row = 0; row + 3 < runs.size(); row += 4) {
        const std::string &wl = runs[row].workload;
        double nested = runs[row + 0].slowdown();
        double shadow = runs[row + 1].slowdown();
        double shsp = runs[row + 2].slowdown();
        double agile = runs[row + 3].slowdown();
        double best = std::min(nested, shadow);
        double vs = (shsp - agile) / agile * 100.0;
        std::printf("%-11s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%   "
                    "%+5.1f%%\n",
                    wl.c_str(), (nested - 1) * 100, (shadow - 1) * 100,
                    (best - 1) * 100, (shsp - 1) * 100,
                    (agile - 1) * 100, vs);
        geo *= shsp / agile;
        ++n;
    }
    std::printf("\nGeometric-mean speedup of agile over SHSP: %+0.1f%%\n",
                (std::pow(geo, 1.0 / n) - 1.0) * 100.0);
    std::printf("Paper: SHSP ~= best of the two techniques; agile "
                "exceeds it by >12%% on average.\n");
    return 0;
}
