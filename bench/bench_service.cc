/**
 * @file
 * apsimd service throughput: submits the Figure 5 matrix as one batch
 * to a freshly started service at 1/2/4/8 workers and compares batch
 * wall-clock against an in-process CellEngine (the workers' cell
 * runner, one process, one thread). Every streamed run object is
 * checked byte-for-byte against the in-process result, so the numbers
 * only count if sharding kept the simulation bit-identical.
 * Machine-readable copy goes to BENCH_service.json.
 *
 * Each worker count gets its own daemon: workers are pre-forked with
 * cold caches, so a measured batch includes the recording/capture cost
 * exactly like the in-process baseline does. Scaling past 1 worker
 * comes from sharding the matrix's affinity families across the fleet.
 *
 * Usage: bench_service [common bench flags] [--json PATH]
 *                      [--require-scale]
 *        --require-scale exits nonzero unless the 4-worker service
 *          finishes the batch >=3x faster than the 1-worker service
 *          (the CI gate; needs >=4 usable cores to be meaningful).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    using fsec = std::chrono::duration<double>;
    return fsec(std::chrono::steady_clock::now() - start).count();
}

struct ServicePoint
{
    unsigned workers = 0;
    double seconds = 0;
    double cellsPerSec = 0;
    bool identical = true;
    std::uint64_t affinityHits = 0;
    std::uint64_t steals = 0;
};

/** The expected "run" JSON for each in-process result. */
std::vector<std::string>
renderExpected(const std::vector<ap::RunResult> &runs)
{
    std::vector<std::string> out;
    out.reserve(runs.size());
    for (const ap::RunResult &r : runs) {
        std::ostringstream os;
        ap::writeRunResultJson(os, r);
        out.push_back(os.str());
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(500'000);
    bool require_scale = false;
    std::string json_path = "BENCH_service.json";
    for (int i = 1; i < argc; ++i) {
        if (opt.consume(argc, argv, i))
            continue;
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--require-scale"))
            require_scale = true;
        else
            opt.reject(argv, i, "[--json PATH] [--require-scale]");
    }
    opt.refuseCacheFlags(argv, true);
    std::vector<ap::ExperimentSpec> specs = ap::figure5Specs(opt.ops);
    // --vcpus / --tlb-coherence reach the batch specs, so the service
    // fleet (and the byte-compared in-process baseline) exercises the
    // multi-vCPU batched replay path end to end.
    for (ap::ExperimentSpec &s : specs) {
        s.numVcpus = opt.vcpus;
        s.tlbCoherence = opt.tlbCoherence;
    }
    std::printf("apsimd service throughput: %zu-cell batch x %llu ops, "
                "%u vcpu%s, %u hardware threads\n",
                specs.size(), static_cast<unsigned long long>(opt.ops),
                opt.vcpus, opt.vcpus == 1 ? "" : "s",
                std::thread::hardware_concurrency());

    // In-process baseline: the same CellEngine the workers run, one
    // process, cold caches — exactly the work one worker does for the
    // whole batch.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<ap::RunResult> baseline;
    {
        ap::CellEngine engine("", opt.snapshotPoolBytes());
        baseline = engine.runAll(specs, 1);
    }
    double baseline_sec = secondsSince(t0);
    std::vector<std::string> expected = renderExpected(baseline);
    std::printf("  in-process (1 thread):  %7.3f s  %7.2f cells/s\n",
                baseline_sec, specs.size() / baseline_sec);

    const unsigned worker_counts[] = {1, 2, 4, 8};
    std::vector<ServicePoint> points;
    for (unsigned workers : worker_counts) {
        ap::service::ServiceOptions sopt;
        sopt.tcpPort = 0;
        sopt.workers = workers;
        sopt.snapshotPoolBytes = opt.snapshotPoolBytes();
        // start() pre-forks the fleet; it must happen while this
        // process is single-threaded (the serve thread comes after).
        ap::service::ServiceServer server(sopt);
        std::string err;
        if (!server.start(&err)) {
            std::fprintf(stderr, "bench_service: %s\n", err.c_str());
            return 1;
        }
        std::thread serve_thread([&server] { server.serve(); });

        ap::service::ServiceClient client;
        if (!client.connectTcp(server.port(), &err)) {
            std::fprintf(stderr, "bench_service: %s\n", err.c_str());
            server.requestStop();
            serve_thread.join();
            return 1;
        }

        ServicePoint pt;
        pt.workers = workers;
        std::vector<std::string> got(specs.size());
        t0 = std::chrono::steady_clock::now();
        ap::service::BatchOutcome outcome = client.runBatch(
            specs,
            [&](ap::service::FrameType, const std::string &json) {
                std::int64_t cell = ap::service::cellOfFrame(json);
                std::string run = ap::service::runObjectOfFrame(json);
                if (cell >= 0 &&
                    cell < static_cast<std::int64_t>(got.size()) &&
                    !run.empty())
                    got[static_cast<std::size_t>(cell)] =
                        std::move(run);
            });
        pt.seconds = secondsSince(t0);
        client.close();
        server.requestStop();
        serve_thread.join();

        if (!outcome.ok || outcome.errors != 0) {
            std::fprintf(stderr,
                         "bench_service: batch failed at %u workers: "
                         "%s (%u errors)\n",
                         workers, outcome.error.c_str(),
                         outcome.errors);
            return 1;
        }
        pt.identical = got == expected;
        pt.cellsPerSec = specs.size() / pt.seconds;
        pt.affinityHits = server.stats().affinityHits;
        pt.steals = server.stats().steals;
        points.push_back(pt);
        std::printf("  service (%u worker%s):  %7.3f s  %7.2f cells/s"
                    "  affinity %llu  steals %llu%s\n",
                    workers, workers == 1 ? "" : "s", pt.seconds,
                    pt.cellsPerSec,
                    static_cast<unsigned long long>(pt.affinityHits),
                    static_cast<unsigned long long>(pt.steals),
                    pt.identical ? "" : "  NOT IDENTICAL (BUG)");
    }

    bool identical = true;
    for (const ServicePoint &pt : points)
        identical = identical && pt.identical;
    double one_worker_sec = points[0].seconds;
    double scale4 = 0;
    for (const ServicePoint &pt : points) {
        if (pt.workers == 4)
            scale4 = one_worker_sec / pt.seconds;
    }
    std::printf("  scaling vs 1 worker:");
    for (const ServicePoint &pt : points)
        std::printf("  %ux=%.2f", pt.workers,
                    one_worker_sec / pt.seconds);
    std::printf("\n  results bit-identical to in-process: %s\n",
                identical ? "yes" : "NO (BUG)");

    std::ofstream json(json_path);
    json << "{\n"
         << "  \"cells\": " << specs.size() << ",\n"
         << "  \"ops_per_cell\": " << opt.ops << ",\n"
         << "  \"vcpus\": " << opt.vcpus << ",\n"
         << "  \"host\": ";
    ap::writeHostMetaJson(json, ap::currentHostMeta(0));
    json << ",\n"
         << "  \"in_process\": {\"seconds\": " << baseline_sec
         << ", \"cells_per_sec\": " << specs.size() / baseline_sec
         << "},\n"
         << "  \"service\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ServicePoint &pt = points[i];
        json << (i ? ", " : "") << "\n    {\"workers\": " << pt.workers
             << ", \"seconds\": " << pt.seconds
             << ", \"cells_per_sec\": " << pt.cellsPerSec
             << ", \"speedup_vs_1worker\": "
             << one_worker_sec / pt.seconds
             << ", \"affinity_hits\": " << pt.affinityHits
             << ", \"steals\": " << pt.steals << "}";
    }
    json << "\n  ],\n"
         << "  \"scale_at_4_workers\": " << scale4 << ",\n"
         << "  \"deterministic\": " << (identical ? "true" : "false")
         << "\n}\n";
    std::printf("  wrote %s\n", json_path.c_str());

    if (!identical)
        return 1;
    if (require_scale) {
        // Four workers cannot run 3x faster than one without four
        // cores to run on; the gate only means something on capable
        // hosts (the CI release runner qualifies).
        if (std::thread::hardware_concurrency() < 4) {
            std::fprintf(stderr,
                         "SKIP: --require-scale needs >=4 hardware "
                         "threads (host has %u)\n",
                         std::thread::hardware_concurrency());
        } else if (scale4 < 3.0) {
            std::fprintf(stderr,
                         "FAIL: 4-worker service is only %.2fx faster "
                         "than 1 worker; the scale gate requires "
                         ">=3x\n",
                         scale4);
            return 1;
        }
    }
    return 0;
}
