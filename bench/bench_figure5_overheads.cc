/**
 * @file
 * Regenerates the paper's Figure 5: execution-time overheads split
 * into page-walk and VMM-intervention segments for every Table V
 * workload under base native (B), nested (N), shadow (S), and agile
 * (A) paging, at both 4 KB and 2 MB pages.
 *
 * Usage: bench_figure5_overheads [common bench flags] [--csv]
 *                                [--workload NAME]
 *                                [--stats-json PATH] [--range]
 *
 * --range adds the range/segment-translation backend (R) as a fifth
 * column of the sweep; the default matrix is unchanged without it.
 *
 * Cells run through a CellEngine: cells that share an operation
 * stream (same workload, page size, ops, seed) record it once and
 * replay it through the batched fast path, and each cell's warm
 * machine image persists under --snapshot-dir so repeat regenerations
 * skip warmup. Results are bit-identical to generating every cell from
 * scratch.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(0);
    bool csv = false;
    bool with_range = false;
    std::string only;
    std::string stats_json;
    for (int i = 1; i < argc; ++i) {
        if (opt.consume(argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--csv"))
            csv = true;
        else if (!std::strcmp(argv[i], "--range"))
            with_range = true;
        else if (!std::strcmp(argv[i], "--workload") && i + 1 < argc)
            only = argv[++i];
        else if (!std::strcmp(argv[i], "--stats-json") && i + 1 < argc)
            stats_json = argv[++i];
        else
            opt.reject(argv, i,
                       "[--csv] [--workload NAME] [--stats-json PATH] "
                       "[--range]");
    }

    std::vector<ap::ExperimentSpec> specs =
        ap::figure5Specs(opt.ops, with_range);
    for (ap::ExperimentSpec &s : specs) {
        s.numVcpus = opt.vcpus;
        s.tlbCoherence = opt.tlbCoherence;
    }
    if (!only.empty()) {
        const std::vector<std::string> names = ap::workloadNames();
        if (std::find(names.begin(), names.end(), only) == names.end()) {
            std::cerr << "unknown workload '" << only << "' (valid:";
            for (const std::string &n : names)
                std::cerr << " " << n;
            std::cerr << ")\n";
            return 2;
        }
        std::erase_if(specs, [&](const ap::ExperimentSpec &s) {
            return s.workload != only;
        });
    }
    if (opt.pageSizeSet) {
        std::erase_if(specs, [&](const ap::ExperimentSpec &s) {
            return s.pageSize != opt.pageSize;
        });
    }
    ap::CellEngine engine = opt.engine();
    std::vector<ap::RunResult> runs = engine.runAll(specs, opt.jobs);

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::cerr << "cannot write " << stats_json << "\n";
            return 1;
        }
        ap::writeRunResultsJson(os, runs, ap::effectiveJobs(opt.jobs));
    }
    if (csv) {
        ap::printCsv(std::cout, runs);
        return 0;
    }
    ap::printFigure5(std::cout, runs);

    // The headline comparison: agile vs the best of its constituents.
    // (Skipped when --page-size trims the matrix: the stride below
    // assumes the full 8-cell-per-workload layout.)
    if (opt.pageSizeSet)
        return 0;
    // Per-workload stride: modes x {4K, 2M}.
    const std::size_t stride = with_range ? 10 : 8;
    std::cout << "\nSummary (4K): agile vs best(N,S)\n";
    for (std::size_t i = 0; i + 3 < runs.size(); i += stride) {
        const ap::RunResult &nested = runs[i + 1];
        const ap::RunResult &shadow = runs[i + 2];
        const ap::RunResult &agile = runs[i + 3];
        double best = std::min(nested.slowdown(), shadow.slowdown());
        double gain = (best - agile.slowdown()) / agile.slowdown() * 100;
        char buf[96];
        std::snprintf(buf, sizeof(buf), "  %-10s agile %+5.1f%% vs best",
                      agile.workload.c_str(), gain);
        std::cout << buf << "\n";
        if (with_range && i + 4 < runs.size()) {
            const ap::RunResult &range = runs[i + 4];
            double rgain =
                (best - range.slowdown()) / range.slowdown() * 100;
            std::snprintf(buf, sizeof(buf),
                          "  %-10s range %+5.1f%% vs best "
                          "(seg hits %llu, spills %llu)",
                          range.workload.c_str(), rgain,
                          static_cast<unsigned long long>(
                              range.segmentHits),
                          static_cast<unsigned long long>(
                              range.segmentSpills));
            std::cout << buf << "\n";
        }
    }
    return 0;
}
