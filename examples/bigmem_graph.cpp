/**
 * @file
 * Big-memory scenario: a graph500-style analytics process and a
 * memcached-style cache sharing one VM, scheduled round-robin — the
 * consolidation scenario the paper's introduction motivates. Shows
 * per-technique overheads, the sptr cache's effect on the context-
 * switch bill, and the agile mode coverage (Table VI style) for the
 * mixed system.
 *
 *   ./bigmem_graph [ops]
 */

#include <cstdio>
#include <iostream>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ap;

RunResult
runConsolidated(VirtMode mode, std::uint64_t ops, bool sptr_cache)
{
    WorkloadParams gparams = defaultParamsFor("graph500");
    gparams.footprintBytes = 96ull << 20;
    gparams.operations = ops;
    WorkloadParams mparams = defaultParamsFor("memcached");
    mparams.footprintBytes = 96ull << 20;
    mparams.operations = ops;

    SimConfig cfg = configFor(mode, PageSize::Size4K, gparams);
    cfg.hostMemFrames *= 2; // two big processes in one VM
    cfg.guestDataFrames *= 2;
    cfg.sptrCacheEntries = sptr_cache ? 8 : 0;
    Machine m(cfg);

    // Two processes; the machine's current process switches as we
    // interleave their steps (two CR3 writes per quantum).
    auto graph = makeWorkload("graph500", gparams);
    auto cache = makeWorkload("memcached", mparams);
    ProcId gpid = m.spawnProcess();
    graph->init(m);
    graph->warmup(m);
    ProcId cpid = m.guestOs().createProcess(mode);
    m.switchTo(cpid);
    cache->init(m);
    cache->warmup(m);

    RunResult base = m.snapshot("consolidated");
    bool g_more = true, c_more = true;
    const unsigned kQuantum = 2000;
    while (g_more || c_more) {
        if (g_more) {
            m.switchTo(gpid);
            for (unsigned i = 0; i < kQuantum && g_more; ++i)
                g_more = graph->step(m);
        }
        if (c_more) {
            m.switchTo(cpid);
            for (unsigned i = 0; i < kQuantum && c_more; ++i)
                c_more = cache->step(m);
        }
    }
    return Machine::delta(m.snapshot("consolidated"), base);
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    std::uint64_t ops = 500'000;
    if (argc > 2 || (argc == 2 && !ap::parseU64(argv[1], ops))) {
        std::cerr << "usage: bigmem_graph [ops]\n";
        return 2;
    }

    std::printf("consolidated VM: graph500 + memcached, round-robin "
                "(%lu ops each)\n\n",
                static_cast<unsigned long>(ops));
    std::printf("%-22s %8s %8s %8s %10s\n", "technique", "walk%",
                "vmm%", "total%", "cs traps");
    struct
    {
        const char *label;
        ap::VirtMode mode;
        bool sptr;
    } cases[] = {
        {"nested", ap::VirtMode::Nested, false},
        {"shadow", ap::VirtMode::Shadow, false},
        {"agile", ap::VirtMode::Agile, false},
        {"agile + sptr cache", ap::VirtMode::Agile, true},
    };
    for (auto &c : cases) {
        ap::RunResult r = runConsolidated(c.mode, ops, c.sptr);
        std::printf(
            "%-22s %7.1f%% %7.1f%% %7.1f%% %10lu\n", c.label,
            r.walkOverhead() * 100, r.vmmOverhead() * 100,
            r.totalOverhead() * 100,
            static_cast<unsigned long>(
                r.trapByKind[std::size_t(ap::TrapKind::CtxSwitch)]));
        if (c.mode == ap::VirtMode::Agile && c.sptr) {
            std::printf("\nagile mode coverage (shadow/L4/L3/L2/L1/"
                        "nested): ");
            for (double cov : r.coverage)
                std::printf("%.1f%% ", cov * 100);
            std::printf("\n");
        }
    }
    std::printf("\nThe sptr cache (Section IV) removes the context-"
                "switch VMtraps that frequent\nconsolidation scheduling "
                "would otherwise cost shadow-based techniques.\n");
    return 0;
}
