/**
 * @file
 * Regenerates the paper's Table VI: the percentage of TLB misses
 * served at each mode/switch level of agile paging, with 4 KB pages
 * and page-walk caches disabled (the table's stated assumption), plus
 * the resulting average memory accesses per TLB miss.
 *
 * Usage: bench_table6_mode_coverage [common bench flags]
 *                                   [--stats-json PATH]
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(0);
    std::string stats_json;
    for (int i = 1; i < argc; ++i) {
        if (opt.consume(argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--stats-json") && i + 1 < argc)
            stats_json = argv[++i];
        else
            opt.reject(argv, i, "[--stats-json PATH]");
    }

    // One cell per workload here, so in-process every cell records
    // rather than replays — but with --snapshot-dir a repeat invocation
    // forks every cell from its persisted warm image.
    ap::CellEngine engine = opt.engine();
    std::vector<ap::RunResult> runs;
    for (const std::string &wl : ap::workloadNames()) {
        ap::WorkloadParams params = ap::defaultParamsFor(wl);
        if (opt.ops)
            params.operations = opt.ops;
        if (opt.seedSet)
            params.seed = opt.seed;
        ap::SimConfig cfg = ap::configFor(ap::VirtMode::Agile,
                                          opt.pageSize, params);
        // Table VI: "assuming no page walk caches".
        cfg.pwcEnabled = false;
        cfg.ntlbEnabled = false;
        runs.push_back(engine.run(wl, params, cfg));
        std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::cerr << "cannot write " << stats_json << "\n";
            return 1;
        }
        ap::writeRunResultsJson(os, runs, 1); // serial bench
    }
    ap::printTable6(std::cout, runs);

    // The paper's companion observation: most upper levels stay
    // shadowed, so misses average 4-5 references.
    double worst = 0;
    for (const auto &r : runs)
        worst = std::max(worst, r.avgWalkRefs);
    std::cout << "\nWorst-case average references per miss: " << worst
              << " (paper: 4-5 across all workloads)\n";
    return 0;
}
