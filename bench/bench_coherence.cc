/**
 * @file
 * Multi-vCPU translation-coherence comparison (Figure 5 style): for
 * each coherence-stress workload, the slowdown split into page-walk,
 * VMM and shootdown segments under nested, shadow, and agile paging,
 * with software (IPI) versus hardware (HATRIC-style) shootdown costs
 * side by side.
 *
 * Usage: bench_coherence [common bench flags] [--workload NAME]
 *                        [--stats-json PATH]
 *
 * Defaults to 4 vCPUs; --vcpus overrides. --tlb-coherence restricts
 * the run to one cost model instead of comparing both.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(200'000);
    opt.vcpus = 4;
    std::string only;
    std::string stats_json;
    bool coherence_set = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--tlb-coherence"))
            coherence_set = true;
        if (opt.consume(argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--workload") && i + 1 < argc)
            only = argv[++i];
        else if (!std::strcmp(argv[i], "--stats-json") && i + 1 < argc)
            stats_json = argv[++i];
        else
            opt.reject(argv, i, "[--workload NAME] [--stats-json PATH]");
    }
    opt.refuseCacheFlags(argv, false);

    const std::vector<std::string> workloads = {
        "shootdown_storm", "reclaim_scan", "page_migration"};
    const ap::VirtMode modes[] = {ap::VirtMode::Nested,
                                  ap::VirtMode::Shadow,
                                  ap::VirtMode::Agile};
    std::vector<ap::TlbCoherence> kinds = {ap::TlbCoherence::Software,
                                           ap::TlbCoherence::Hardware};
    if (coherence_set)
        kinds = {opt.tlbCoherence};

    std::vector<ap::ExperimentSpec> specs;
    for (const std::string &wl : workloads) {
        if (!only.empty() && wl != only)
            continue;
        for (ap::VirtMode mode : modes) {
            for (ap::TlbCoherence kind : kinds) {
                ap::ExperimentSpec spec;
                spec.workload = wl;
                spec.mode = mode;
                spec.pageSize = opt.pageSize;
                spec.operations = opt.ops;
                spec.numVcpus = opt.vcpus;
                spec.tlbCoherence = kind;
                specs.push_back(spec);
            }
        }
    }
    if (specs.empty()) {
        std::cerr << "unknown --workload '" << only
                  << "' (coherence workloads: shootdown_storm, "
                     "reclaim_scan, page_migration)\n";
        return 2;
    }

    std::vector<ap::RunResult> runs = ap::parallelMap(
        specs.size(), opt.jobs, [&](std::uint64_t i) {
            ap::RunResult r = ap::runExperiment(specs[i]);
            // Tag the cost model so rows are distinguishable; the
            // numbers themselves carry it via coherence_cycles.
            r.workload = specs[i].workload + "/" +
                         ap::tlbCoherenceName(specs[i].tlbCoherence);
            return r;
        });

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::cerr << "cannot write " << stats_json << "\n";
            return 1;
        }
        ap::writeRunResultsJson(os, runs, ap::effectiveJobs(opt.jobs));
    }

    std::printf("Translation coherence, %u vCPUs, %s pages "
                "(overheads as fraction of ideal cycles)\n\n",
                opt.vcpus, ap::pageSizeName(opt.pageSize));
    std::printf("%-22s %-7s %-4s %10s %10s %9s %9s %9s %9s\n",
                "workload", "mode", "coh", "shootdowns", "rem.inval",
                "walk", "vmm", "coherence", "slowdown");
    for (const ap::RunResult &r : runs) {
        std::string wl = r.workload.substr(0, r.workload.rfind('/'));
        std::string coh = r.workload.substr(r.workload.rfind('/') + 1);
        std::printf("%-22s %-7s %-4s %10llu %10llu %8.3f%% %8.3f%% "
                    "%8.3f%% %9.4f\n",
                    wl.c_str(), ap::virtModeName(r.mode), coh.c_str(),
                    static_cast<unsigned long long>(r.shootdowns),
                    static_cast<unsigned long long>(
                        r.remoteInvalidations),
                    r.walkOverhead() * 100, r.vmmOverhead() * 100,
                    r.coherenceOverhead() * 100, r.slowdown());
    }

    if (kinds.size() == 2) {
        std::printf("\nSummary: sw-IPI cost vs hw coherence "
                    "(slowdown delta, positive = hw wins)\n");
        for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
            const ap::RunResult &sw = runs[i];
            const ap::RunResult &hw = runs[i + 1];
            std::string wl = sw.workload.substr(0, sw.workload.rfind('/'));
            std::printf("  %-22s %-7s %+7.4f\n", wl.c_str(),
                        ap::virtModeName(sw.mode),
                        sw.slowdown() - hw.slowdown());
        }
    }
    return 0;
}
