/**
 * @file
 * Consolidation experiment: pairs of Table V workloads sharing one VM
 * under round-robin scheduling — the cloud-consolidation scenario the
 * paper's introduction motivates. Shows how frequent guest context
 * switches shift the technique ranking and how the sptr cache
 * (Section IV) restores agile's advantage.
 *
 * Each pair is one ConsolidatedWorkload, and each (pair, technique)
 * is an ordinary CellEngine cell: the interleaved stream is
 * mode-independent, so the first technique records it and the other
 * three replay it. With --snapshot-dir the traces and each cell's
 * warm-boundary machine image persist across invocations: a repeat
 * run records nothing and forks every cell.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "workloads/consolidated.hh"

namespace
{

using namespace ap;

constexpr std::uint64_t kQuantum = 2'000;

struct Cell
{
    const char *a;
    const char *b;
    VirtMode mode;
    bool hwOpts;
};

double
runCell(CellEngine &engine, const Cell &cell, const BenchOptions &opt)
{
    WorkloadParams pa = defaultParamsFor(cell.a);
    WorkloadParams pb = defaultParamsFor(cell.b);
    pa.footprintBytes /= 2;
    pb.footprintBytes /= 2;
    pa.operations = pb.operations = opt.ops;
    if (opt.seedSet) {
        pa.seed = opt.seed;
        pb.seed = opt.seed + 1;
    }
    // Size the machine for both footprints.
    WorkloadParams sizing = pa;
    sizing.footprintBytes = pa.footprintBytes + pb.footprintBytes;
    SimConfig cfg = configFor(cell.mode, opt.pageSize, sizing, cell.hwOpts);
    cfg.numVcpus = opt.vcpus;
    cfg.tlbCoherence = opt.tlbCoherence;

    std::vector<std::unique_ptr<Workload>> slots;
    slots.push_back(makeWorkload(cell.a, pa));
    slots.push_back(makeWorkload(cell.b, pb));
    ConsolidatedWorkload pair(std::move(slots), kQuantum,
                              cfg.warmupFraction);
    Machine machine(cfg);
    return engine.run(pair.name(), pair, machine).totalOverhead();
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(500'000);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }
    ap::CellEngine engine = opt.engine();

    const char *pairs[][2] = {{"graph500", "memcached"},
                              {"mcf", "dedup"},
                              {"canneal", "gcc"}};
    const struct
    {
        ap::VirtMode mode;
        bool hw;
    } techniques[] = {{ap::VirtMode::Nested, false},
                      {ap::VirtMode::Shadow, false},
                      {ap::VirtMode::Agile, false},
                      {ap::VirtMode::Agile, true}};
    std::vector<Cell> cells;
    for (auto &p : pairs)
        for (auto &t : techniques)
            cells.push_back({p[0], p[1], t.mode, t.hw});
    std::vector<double> overhead = ap::parallelMap(
        cells.size(), opt.jobs,
        [&](std::size_t i) { return runCell(engine, cells[i], opt); });

    std::printf("Consolidated pairs (round-robin, 2k-step quanta); "
                "total overhead per technique\n\n");
    std::printf("%-22s %10s %10s %10s %10s\n", "pair", "nested",
                "shadow", "agile", "agile+hw");
    std::size_t at = 0;
    for (auto &p : pairs) {
        std::printf("%-22s", (std::string(p[0]) + "+" + p[1]).c_str());
        for (std::size_t t = 0; t < std::size(techniques); ++t)
            std::printf(" %9.1f%%", overhead[at++] * 100);
        std::printf("\n");
    }
    std::printf("\nThe hardware sptr cache removes the per-quantum "
                "context-switch traps that\notherwise erode agile's "
                "advantage under consolidation (Section IV).\n");
    ap::printEngineCounters(engine);
    return 0;
}
