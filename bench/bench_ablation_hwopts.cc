/**
 * @file
 * Ablation of the paper's two optional hardware optimizations
 * (Section IV): hardware A/D-bit writes into all three page tables,
 * and the sptr cache for guest context switches. Runs agile paging
 * with each combination on the workloads the optimizations target
 * (A/D: write-heavy canneal/dedup; sptr: context-switchy memcached).
 *
 * The four variants of one workload share a single recorded trace;
 * with --snapshot-dir, repeat invocations fork every cell from its
 * persisted warm image.
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
run(ap::CellEngine &engine, const std::string &wl, bool hw_ad, std::size_t sptr,
    const ap::BenchOptions &opt)
{
    ap::WorkloadParams params = ap::defaultParamsFor(wl);
    params.operations = opt.ops;
    if (opt.seedSet)
        params.seed = opt.seed;
    ap::SimConfig cfg =
        ap::configFor(ap::VirtMode::Agile, opt.pageSize, params);
    cfg.hwOptAd = hw_ad;
    cfg.sptrCacheEntries = sptr;
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

    std::printf("Hardware-optimization ablation (agile paging, %s)\n\n",
                opt.pageSize == ap::PageSize::Size2M ? "2M" : "4K");
    std::printf("%-11s %12s %12s %12s %12s   %10s %10s\n", "workload",
                "none", "+A/D hw", "+sptr", "both", "ad_traps",
                "cs_traps");
    for (const std::string &wl :
         {std::string("canneal"), std::string("dedup"),
          std::string("memcached"), std::string("gcc")}) {
        ap::RunResult none = run(engine, wl, false, 0, opt);
        ap::RunResult ad = run(engine, wl, true, 0, opt);
        ap::RunResult sptr = run(engine, wl, false, 8, opt);
        ap::RunResult both = run(engine, wl, true, 8, opt);
        std::printf(
            "%-11s %11.1f%% %11.1f%% %11.1f%% %11.1f%%   %10lu %10lu\n",
            wl.c_str(), none.totalOverhead() * 100,
            ad.totalOverhead() * 100, sptr.totalOverhead() * 100,
            both.totalOverhead() * 100,
            static_cast<unsigned long>(
                none.trapByKind[std::size_t(ap::TrapKind::AdEmulation)]),
            static_cast<unsigned long>(
                none.trapByKind[std::size_t(ap::TrapKind::CtxSwitch)]));
    }
    std::printf("\nColumns are total execution-time overhead; the "
                "optimizations remove AdEmulation\nand CtxSwitch traps "
                "respectively (Section IV).\n");
    ap::printEngineCounters(engine);
    return 0;
}
