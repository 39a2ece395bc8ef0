/**
 * @file
 * Cross-mode integration and property tests: every technique must
 * produce functionally identical translations for identical operation
 * streams, and randomized operation fuzzing holds the machine's
 * invariants under verification.
 */

#include <gtest/gtest.h>

#include "base/bitfield.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace ap
{
namespace
{

SimConfig
cfgFor(VirtMode mode, PageSize ps = PageSize::Size4K)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.pageSize = ps;
    cfg.guestOs.pageSize = ps;
    cfg.hostMemFrames = 1 << 17;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 16;
    cfg.verifyTranslations = true; // panics on any functional mismatch
    cfg.policyIntervalOps = 20'000;
    return cfg;
}

TEST(Integration, IdenticalStreamsTranslateIdentically)
{
    // Drive the exact same operation sequence through every mode with
    // verification on; the per-mode *functional* behaviour must agree
    // (same faults served, same final mapping count).
    for (VirtMode mode : {VirtMode::Native, VirtMode::Nested,
                          VirtMode::Shadow, VirtMode::Agile,
                          VirtMode::Shsp}) {
        Machine m(cfgFor(mode));
        ProcId pid = m.spawnProcess();
        Rng rng(77);
        Addr regions[4];
        for (auto &r : regions)
            r = m.mmap(64 * kPageBytes, true, false, 0);
        for (int i = 0; i < 5'000; ++i) {
            Addr base = regions[rng.nextBelow(4)];
            m.touch(base + pageBase(rng.nextBelow(64 * kPageBytes)),
                    rng.chance(0.5));
        }
        GuestProcess &p = m.guestOs().process(pid);
        EXPECT_EQ(p.pt->mappingCount(), 256u) << virtModeName(mode);
        EXPECT_EQ(m.guestOs().demandPages.value(), 256.0)
            << virtModeName(mode);
    }
}

TEST(Integration, RandomOpFuzzAllModes)
{
    // Randomized mmap/munmap/touch/fork/reclaim fuzzing with
    // translation verification enabled: any stale TLB entry, stale
    // shadow entry, or bad switching pointer panics.
    for (VirtMode mode : {VirtMode::Nested, VirtMode::Shadow,
                          VirtMode::Agile}) {
        Machine m(cfgFor(mode));
        m.spawnProcess();
        Rng rng(1234);
        std::vector<std::pair<Addr, Addr>> live;
        for (int i = 0; i < 8'000; ++i) {
            double roll = rng.nextDouble();
            if (roll < 0.05 && live.size() < 24) {
                Addr len = kPageBytes * (1 + rng.nextBelow(32));
                Addr base = m.mmap(len, true, false, 0);
                if (base)
                    live.emplace_back(base, len);
            } else if (roll < 0.08 && !live.empty()) {
                std::size_t k = rng.nextBelow(live.size());
                m.munmap(live[k].first, live[k].second);
                live.erase(live.begin() + k);
            } else if (roll < 0.10 && !live.empty()) {
                m.forkTouchExit(4);
            } else if (roll < 0.12) {
                m.reclaimTick(64);
            } else if (roll < 0.13) {
                m.sharePagesScan();
            } else if (!live.empty()) {
                std::size_t k = rng.nextBelow(live.size());
                m.touch(live[k].first +
                            pageBase(rng.nextBelow(live[k].second)),
                        rng.chance(0.4));
            }
        }
        SUCCEED() << virtModeName(mode);
    }
}

TEST(Integration, MixedPageSizeStagesBreakToSmall)
{
    // Guest 2 MB pages over 4 KB host mappings: the TLB entry must be
    // broken to 4 KB (Section V) and still translate correctly.
    SimConfig cfg = cfgFor(VirtMode::Nested, PageSize::Size4K);
    cfg.guestOs.pageSize = PageSize::Size2M; // guest THP, host 4K
    Machine m(cfg);
    m.spawnProcess();
    Addr base = m.mmap(4 * kLargePageBytes, true, false, 0);
    for (Addr off = 0; off < 4 * kLargePageBytes; off += kLargePageBytes)
        m.touch(base + off, true);
    auto gm = m.guestOs().process(m.currentProcess()).pt->lookup(base);
    ASSERT_TRUE(gm.has_value());
    EXPECT_EQ(gm->size, PageSize::Size2M);
    // Accesses at 4K granularity all verify (done inside touch).
    for (Addr off = 0; off < kLargePageBytes; off += 64 * kPageBytes)
        m.touch(base + off, false);
}

TEST(Integration, AgileSurvivesProcessChurn)
{
    // Create/destroy many processes under agile paging: shadow state,
    // sptr cache entries, and policy state must not leak or dangle.
    SimConfig cfg = cfgFor(VirtMode::Agile);
    cfg.sptrCacheEntries = 4;
    Machine m(cfg);
    ProcId main = m.spawnProcess();
    Addr base = m.mmap(32 * kPageBytes, true, false, 0);
    for (int round = 0; round < 20; ++round) {
        ProcId child = m.guestOs().createProcess(VirtMode::Agile);
        m.switchTo(child);
        Addr cbase = m.guestOs().mmap(child, 16 * kPageBytes, true,
                                      VmaKind::Anon);
        for (unsigned i = 0; i < 16; ++i)
            m.touch(cbase + i * kPageBytes, true);
        m.switchTo(main);
        m.guestOs().exitProcess(child);
        m.touch(base + (round % 32) * kPageBytes, true);
    }
    EXPECT_TRUE(m.guestOs().hasProcess(main));
}

TEST(Integration, HostMemoryAccounting)
{
    // After heavy churn, freeing the process releases every host frame
    // except the VMM's own tables.
    SimConfig cfg = cfgFor(VirtMode::Agile);
    Machine m(cfg);
    ProcId pid = m.spawnProcess();
    Rng rng(5);
    Addr base = m.mmap(256 * kPageBytes, true, false, 0);
    for (int i = 0; i < 4'000; ++i)
        m.touch(base + pageBase(rng.nextBelow(256 * kPageBytes)),
                rng.chance(0.5));
    m.guestOs().exitProcess(pid);
    EXPECT_EQ(m.vmm()->backedDataFrames(), 0u);
}

} // namespace
} // namespace ap
