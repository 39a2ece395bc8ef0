/**
 * @file
 * Validates the paper's evaluation methodology against direct
 * measurement. The authors could not run agile paging on real
 * hardware, so Section VI projects its performance with a two-step
 * linear model: measure shadow and nested runs, classify each agile
 * TLB miss by switch level, and combine the constituent per-miss
 * costs (pessimistically charging leaf-switched misses half the
 * nested premium). Our simulator executes agile paging directly, so
 * we can quantify how conservative that model is.
 */

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/perf_model.hh"

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

    std::printf("Two-step linear model (Section VI) vs direct "
                "simulation of agile paging\n\n");
    std::printf("%-11s %16s %16s %9s\n", "workload", "projected walk%",
                "measured walk%", "model err");
    for (const std::string &wl : ap::workloadNames()) {
        auto run = [&](ap::VirtMode mode) {
            ap::ExperimentSpec spec;
            spec.workload = wl;
            spec.mode = mode;
            spec.operations = opt.ops;
            spec.pageSize = opt.pageSize;
            return engine.run(spec);
        };
        ap::RunResult shadow = run(ap::VirtMode::Shadow);
        ap::RunResult nested = run(ap::VirtMode::Nested);
        ap::RunResult agile = run(ap::VirtMode::Agile);

        double projected_cycles =
            ap::projectAgileWalkCycles(shadow, nested, agile);
        double projected =
            projected_cycles / double(agile.idealCycles) * 100.0;
        double measured = agile.walkOverhead() * 100.0;
        std::printf("%-11s %15.2f%% %15.2f%% %+8.2f%%\n", wl.c_str(),
                    projected, measured, projected - measured);
    }
    std::printf("\nA positive error means the paper's model is "
                "pessimistic (it assumed leaf-switched\nmisses pay half "
                "the full nested premium); the paper notes the same "
                "bias:\n\"This assumption leads to higher overheads for "
                "agile paging than with real hardware.\"\n");
    return 0;
}
