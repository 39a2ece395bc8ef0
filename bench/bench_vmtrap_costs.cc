/**
 * @file
 * LMbench-style microbenchmarks of VMtrap costs (paper Section VI,
 * "Cost of VMtraps"): measures the modelled cycles of a context
 * switch, a page-table update, and a page fault under each technique
 * by driving the exact event in isolation and reading the trap-cycle
 * delta — the same methodology the paper uses with LMbench plus
 * microbenchmarks on real hardware.
 */

#include <algorithm>
#include <cstdio>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/machine.hh"

namespace
{

using namespace ap;

/** --ops scales the per-event iteration counts (default 100). */
unsigned g_iters = 100;

SimConfig
probeConfig(VirtMode mode)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = 1 << 15;
    cfg.guestPtFrames = 1 << 12;
    cfg.guestDataFrames = 1 << 14;
    return cfg;
}

Cycles
trapCycles(Machine &m)
{
    return m.vmm() ? m.vmm()->trapCycles() : 0;
}

/** Cost of one guest context switch (round trip to another process). */
Cycles
measureCtxSwitch(VirtMode mode)
{
    Machine m(probeConfig(mode));
    ProcId a = m.spawnProcess();
    ProcId b = m.guestOs().createProcess(mode);
    // Warm both (first switch instantiates shadow state).
    m.switchTo(b);
    m.switchTo(a);
    Cycles before = trapCycles(m);
    const unsigned kIters = g_iters;
    for (unsigned i = 0; i < kIters; ++i) {
        m.switchTo(b);
        m.switchTo(a);
    }
    return (trapCycles(m) - before) / (2 * kIters);
}

/** Cost of one guest page-table update (mprotect-style PTE write). */
Cycles
measurePtUpdate(VirtMode mode)
{
    Machine m(probeConfig(mode));
    m.spawnProcess();
    Addr base = m.mmap(256 * kPageBytes, true, false, 0);
    for (unsigned i = 0; i < 256; ++i)
        m.touch(base + i * kPageBytes, true); // populate + shadow-fill
    Cycles before = trapCycles(m);
    // COW-style: remap pages (guest PT writes + shootdowns).
    const unsigned kPages = std::min(g_iters, 128u);
    for (unsigned i = 0; i < kPages; ++i) {
        m.munmap(base + i * kPageBytes, kPageBytes);
        m.guestOs().mmapFixed(m.currentProcess(), base + i * kPageBytes,
                              kPageBytes, true, VmaKind::Anon);
    }
    return (trapCycles(m) - before) / kPages;
}

/** Cost of one demand page fault. */
Cycles
measurePageFault(VirtMode mode)
{
    Machine m(probeConfig(mode));
    m.spawnProcess();
    const unsigned kPages = 256;
    Addr base = m.mmap(kPages * kPageBytes, true, false, 0);
    Cycles before = trapCycles(m);
    for (unsigned i = 0; i < kPages; ++i)
        m.touch(base + i * kPageBytes, true);
    return (trapCycles(m) - before) / kPages;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    // --ops N sets the per-event iteration count (clamped to the
    // pre-populated page counts where the micro needs warm state).
    ap::BenchOptions opt(100);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }
    opt.refuseCacheFlags(argv, false);
    g_iters = static_cast<unsigned>(
        std::min<std::uint64_t>(opt.ops ? opt.ops : 100, 1u << 20));
    std::printf("VMtrap cost microbenchmarks (modelled cycles per "
                "event; Section VI)\n\n");
    std::printf("%-10s %14s %14s %14s\n", "technique", "ctx switch",
                "PT update", "page fault");
    const ap::VirtMode modes[] = {
        ap::VirtMode::Native, ap::VirtMode::Nested, ap::VirtMode::Shadow,
        ap::VirtMode::Agile};
    for (ap::VirtMode mode : modes) {
        std::printf("%-10s %14lu %14lu %14lu\n", ap::virtModeName(mode),
                    static_cast<unsigned long>(measureCtxSwitch(mode)),
                    static_cast<unsigned long>(measurePtUpdate(mode)),
                    static_cast<unsigned long>(measurePageFault(mode)));
    }

    // The sptr-cache optimization's effect on context switches.
    {
        ap::SimConfig cfg = probeConfig(ap::VirtMode::Agile);
        cfg.sptrCacheEntries = 8;
        ap::Machine m(cfg);
        ap::ProcId a = m.spawnProcess();
        ap::ProcId b = m.guestOs().createProcess(ap::VirtMode::Agile);
        m.switchTo(b);
        m.switchTo(a);
        ap::Cycles before = m.vmm()->trapCycles();
        for (unsigned i = 0; i < g_iters; ++i) {
            m.switchTo(b);
            m.switchTo(a);
        }
        std::printf("\nAgile + sptr cache: ctx switch costs %lu cycles "
                    "(trap eliminated on hits)\n",
                    static_cast<unsigned long>(
                        (m.vmm()->trapCycles() - before) / (2 * g_iters)));
    }
    std::printf("\nPaper: VMtraps cost 1000s of cycles; nested/native "
                "pay none for PT updates\nand context switches.\n");
    return 0;
}
