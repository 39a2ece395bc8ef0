/**
 * @file
 * Ablation of the MMU caching structures (Section III-A): the
 * three-table page-walk cache (with agile's per-entry mode bit) and
 * the nested TLB. Shows how each reduces memory references per walk
 * under nested and agile paging on TLB-miss-heavy workloads.
 *
 * All eight cells of one workload (2 modes x 4 MMU-cache variants)
 * share a single recorded trace.
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
run(ap::CellEngine &engine, const std::string &wl, ap::VirtMode mode,
    bool pwc, bool ntlb, const ap::BenchOptions &opt)
{
    ap::WorkloadParams params = ap::defaultParamsFor(wl);
    params.operations = opt.ops;
    if (opt.seedSet)
        params.seed = opt.seed;
    ap::SimConfig cfg = ap::configFor(mode, opt.pageSize, params);
    cfg.pwcEnabled = pwc;
    cfg.ntlbEnabled = ntlb;
    return engine.run(wl, params, cfg);
}

void
sweep(ap::CellEngine &engine, const std::string &wl, ap::VirtMode mode,
      const ap::BenchOptions &opt)
{
    struct Cfg
    {
        const char *label;
        bool pwc, ntlb;
    } cfgs[] = {{"none", false, false},
                {"PWC", true, false},
                {"nTLB", false, true},
                {"PWC+nTLB", true, true}};
    std::printf("%-11s %-7s", wl.c_str(), ap::virtModeName(mode));
    for (const Cfg &c : cfgs) {
        ap::RunResult r = run(engine, wl, mode, c.pwc, c.ntlb, opt);
        std::printf("  %5.2f/%5.1f%%", r.avgWalkRefs,
                    r.walkOverhead() * 100);
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(600'000);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }
    ap::CellEngine engine = opt.engine();

    std::printf("MMU-cache ablation: avg walk refs / walk overhead\n\n");
    std::printf("%-11s %-7s  %12s  %12s  %12s  %12s\n", "workload",
                "mode", "none", "PWC", "nTLB", "PWC+nTLB");
    for (const std::string &wl :
         {std::string("mcf"), std::string("graph500"),
          std::string("tigr")}) {
        sweep(engine, wl, ap::VirtMode::Nested, opt);
        sweep(engine, wl, ap::VirtMode::Agile, opt);
    }
    std::printf("\nThe PWC's per-entry mode bit lets agile walks resume "
                "in the correct mode\n(Section III-A); the nested TLB "
                "removes the inner host walks of nested mode.\n");
    return 0;
}
