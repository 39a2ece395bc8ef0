/**
 * @file
 * Ablation of the agile mode-switch policies (Section III-C):
 *   - nested=>shadow back-policy: none vs periodic-reset vs dirty-scan
 *   - shadow=>nested write-burst threshold sweep
 * on the page-table-churn workloads where the policies matter.
 *
 * All variants of one workload share a single recorded trace (the
 * stream does not depend on the policy), and cells with identical
 * full configs — dirty-scan/threshold-2 appears in both tables —
 * fork from one warm snapshot instead of re-warming.
 */

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "trace/trace_cache.hh"

namespace
{

ap::RunResult
run(ap::CellEngine &engine, const std::string &wl, ap::BackPolicy back,
    std::uint32_t threshold, const ap::BenchOptions &opt)
{
    ap::WorkloadParams params = ap::defaultParamsFor(wl);
    params.operations = opt.ops;
    if (opt.seedSet)
        params.seed = opt.seed;
    ap::SimConfig cfg =
        ap::configFor(ap::VirtMode::Agile, opt.pageSize, params);
    cfg.policy.backPolicy = back;
    cfg.policy.writeThreshold = threshold;
    return engine.run(wl, params, cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(1'000'000);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }
    ap::CellEngine engine = opt.engine();

    const std::string workloads[] = {"dedup", "gcc", "memcached"};

    std::printf("Back-policy ablation (agile, threshold=2)\n\n");
    std::printf("%-11s %12s %12s %12s\n", "workload", "none",
                "periodic", "dirty-scan");
    for (const std::string &wl : workloads) {
        double none = run(engine, wl, ap::BackPolicy::None, 2, opt)
                          .totalOverhead();
        double periodic =
            run(engine, wl, ap::BackPolicy::PeriodicReset, 2, opt)
                .totalOverhead();
        double dirty = run(engine, wl, ap::BackPolicy::DirtyScan, 2, opt)
                           .totalOverhead();
        std::printf("%-11s %11.1f%% %11.1f%% %11.1f%%\n", wl.c_str(),
                    none * 100, periodic * 100, dirty * 100);
    }

    std::printf("\nWrite-burst threshold sweep (dirty-scan back "
                "policy)\n\n");
    std::printf("%-11s %10s %10s %10s %10s\n", "workload", "thr=1",
                "thr=2", "thr=4", "thr=8");
    for (const std::string &wl : workloads) {
        std::printf("%-11s", wl.c_str());
        for (std::uint32_t thr : {1u, 2u, 4u, 8u}) {
            double o =
                run(engine, wl, ap::BackPolicy::DirtyScan, thr, opt)
                    .totalOverhead();
            std::printf(" %9.1f%%", o * 100);
        }
        std::printf("\n");
    }
    std::printf("\nThe paper uses threshold 2 ('a small threshold like "
                "the one used in branch\npredictors') with the "
                "dirty-bit scan as the effective back policy.\n");
    ap::printEngineCounters(engine);
    return 0;
}
