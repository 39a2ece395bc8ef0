/**
 * @file
 * Guest OS tests: demand paging, THP, fork/COW semantics, munmap with
 * PT-page pruning, reclaim, and the native/virtualized duality.
 */

#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "base/bitfield.hh"
#include "base/rng.hh"
#include "guestos/guest_os.hh"

namespace ap
{
namespace
{

/** Environment factory: native or virtualized guest OS. */
class GuestOsTest : public ::testing::Test
{
  protected:
    GuestOsTest() : mem(1 << 16) {}

    void
    makeVirt(PageSize ps = PageSize::Size4K, bool agile = true)
    {
        VmmConfig vcfg;
        vcfg.guestPtFrames = 1 << 12;
        vcfg.guestDataFrames = 1 << 14;
        vcfg.hostPageSize = ps;
        vmm = std::make_unique<Vmm>(&root, mem, vcfg, nullptr);
        smgr = std::make_unique<ShadowMgr>(&root, mem, *vmm,
                                           ShadowConfig{}, nullptr);
        GuestOsConfig cfg;
        cfg.pageSize = ps;
        os = std::make_unique<GuestOs>(&root, mem, vmm.get(), smgr.get(),
                                       nullptr, cfg);
        pid = os->createProcess(agile ? VirtMode::Agile
                                      : VirtMode::Nested);
    }

    void
    makeNative()
    {
        os = std::make_unique<GuestOs>(&root, mem, nullptr, nullptr,
                                       nullptr, GuestOsConfig{});
        pid = os->createProcess(VirtMode::Native);
    }

    stats::StatGroup root{"t"};
    PhysMem mem;
    std::unique_ptr<Vmm> vmm;
    std::unique_ptr<ShadowMgr> smgr;
    std::unique_ptr<GuestOs> os;
    ProcId pid = 0;
};

TEST_F(GuestOsTest, DemandPagingInstallsMapping)
{
    makeVirt();
    Addr base = os->mmap(pid, 16 * kPageBytes, true, VmaKind::Anon);
    ASSERT_NE(base, 0u);
    GuestProcess &p = os->process(pid);
    EXPECT_FALSE(p.pt->lookup(base).has_value());
    ASSERT_TRUE(os->handlePageFault(pid, base + 0x123, true));
    auto m = p.pt->lookup(base);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->pte.writable);
    EXPECT_TRUE(m->pte.dirty); // write fault installs dirty
    EXPECT_EQ(os->demandPages.value(), 1.0);
}

TEST_F(GuestOsTest, ReadFaultInstallsClean)
{
    makeVirt();
    Addr base = os->mmap(pid, kPageBytes, true, VmaKind::Anon);
    ASSERT_TRUE(os->handlePageFault(pid, base, false));
    EXPECT_FALSE(os->process(pid).pt->lookup(base)->pte.dirty);
}

TEST_F(GuestOsTest, FaultOutsideVmaFails)
{
    makeVirt();
    EXPECT_FALSE(os->handlePageFault(pid, 0xdeadbeef000, false));
}

TEST_F(GuestOsTest, ThpMapsWholeRegion)
{
    makeVirt(PageSize::Size2M);
    Addr base = os->mmap(pid, 4 * kLargePageBytes, true, VmaKind::Anon);
    ASSERT_EQ(base % kLargePageBytes, 0u);
    ASSERT_TRUE(os->handlePageFault(pid, base + 0x5000, true));
    auto m = os->process(pid).pt->lookup(base);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, PageSize::Size2M);
    EXPECT_EQ(os->thpMappings.value(), 1.0);
    // A second fault in the same 2M region is spurious (covered).
    EXPECT_TRUE(os->handlePageFault(pid, base + 0x100000, false));
    EXPECT_EQ(os->thpMappings.value(), 1.0);
}

TEST_F(GuestOsTest, SmallVmaFallsBackTo4K)
{
    makeVirt(PageSize::Size2M);
    Addr base = os->mmap(pid, 8 * kPageBytes, true, VmaKind::Anon);
    ASSERT_TRUE(os->handlePageFault(pid, base, true));
    EXPECT_EQ(os->process(pid).pt->lookup(base)->size, PageSize::Size4K);
}

TEST_F(GuestOsTest, MunmapFreesFramesAndPrunes)
{
    makeVirt();
    Addr base = os->mmap(pid, kLargePageBytes, true, VmaKind::Anon);
    // Align probe VAs on the mapped region; back frames as the first
    // hardware touch would.
    for (unsigned i = 0; i < 512; ++i) {
        os->handlePageFault(pid, base + i * kPageBytes, true);
        vmm->ensureDataBacked(os->leafFrame(pid, base + i * kPageBytes));
    }
    GuestProcess &p = os->process(pid);
    std::uint64_t pt_pages = p.pt->pageCount();
    std::uint64_t backed = vmm->backedDataFrames();
    os->munmap(pid, base, kLargePageBytes);
    EXPECT_LT(vmm->backedDataFrames(), backed);
    EXPECT_FALSE(p.pt->lookup(base).has_value());
    // Fully-empty leaf PT pages are pruned.
    EXPECT_LT(p.pt->pageCount(), pt_pages);
    EXPECT_EQ(os->vmaWritable(pid, base), false);
}

TEST_F(GuestOsTest, ForkSharesCow)
{
    makeVirt();
    Addr base = os->mmap(pid, 8 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 8; ++i)
        os->handlePageFault(pid, base + i * kPageBytes, true);
    ProcId child = os->fork(pid);
    ASSERT_NE(child, 0u);
    // Both sides read-only on the same frames.
    GuestProcess &pp = os->process(pid);
    GuestProcess &cp = os->process(child);
    auto pm = pp.pt->lookup(base);
    auto cm = cp.pt->lookup(base);
    ASSERT_TRUE(pm && cm);
    EXPECT_EQ(pm->pfn, cm->pfn);
    EXPECT_FALSE(pm->pte.writable);
    EXPECT_FALSE(cm->pte.writable);

    // Child write breaks COW: new frame, writable; parent untouched.
    ASSERT_TRUE(os->handleCowWrite(child, base));
    auto cm2 = cp.pt->lookup(base);
    EXPECT_TRUE(cm2->pte.writable);
    EXPECT_NE(cm2->pfn, pm->pfn);
    EXPECT_FALSE(pp.pt->lookup(base)->pte.writable);
    EXPECT_EQ(os->cowBreaks.value(), 1.0);
}

TEST_F(GuestOsTest, LastOwnerCowJustRestoresWrite)
{
    makeVirt();
    Addr base = os->mmap(pid, kPageBytes, true, VmaKind::Anon);
    os->handlePageFault(pid, base, true);
    ProcId child = os->fork(pid);
    os->exitProcess(child);
    FrameId before = os->leafFrame(pid, base);
    ASSERT_TRUE(os->handleCowWrite(pid, base));
    // Sole owner again: no copy, same frame, writable.
    EXPECT_EQ(os->leafFrame(pid, base), before);
    EXPECT_TRUE(os->guestMappingWritable(pid, base));
}

TEST_F(GuestOsTest, ExitReleasesEverything)
{
    makeVirt();
    Addr base = os->mmap(pid, 64 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 64; ++i) {
        os->handlePageFault(pid, base + i * kPageBytes, true);
        vmm->ensureDataBacked(os->leafFrame(pid, base + i * kPageBytes));
    }
    std::uint64_t backed = vmm->backedDataFrames();
    EXPECT_GT(backed, 0u);
    os->exitProcess(pid);
    EXPECT_FALSE(os->hasProcess(pid));
    EXPECT_EQ(vmm->backedDataFrames(), 0u);
    EXPECT_FALSE(smgr->hasProcess(pid));
}

TEST_F(GuestOsTest, ForkedFramesSurviveParentExit)
{
    makeVirt();
    Addr base = os->mmap(pid, 4 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 4; ++i) {
        os->handlePageFault(pid, base + i * kPageBytes, true);
        vmm->ensureDataBacked(os->leafFrame(pid, base + i * kPageBytes));
    }
    ProcId child = os->fork(pid);
    FrameId shared = os->leafFrame(child, base);
    os->exitProcess(pid);
    // The child still maps the shared frames.
    EXPECT_EQ(os->leafFrame(child, base), shared);
    EXPECT_NE(vmm->backing(shared), 0u);
    os->exitProcess(child);
    EXPECT_EQ(vmm->backedDataFrames(), 0u);
}

TEST_F(GuestOsTest, ReapFreesSameFramesAsExit)
{
    // Build the identical process twice and tear one down with
    // exitProcess, the other with the bulk reapProcess; the allocator
    // state they leave behind must match exactly.
    makeVirt();
    auto populate = [&](ProcId p) {
        Addr base = os->mmap(p, 64 * kPageBytes, true, VmaKind::Anon);
        for (unsigned i = 0; i < 64; ++i) {
            os->handlePageFault(p, base + i * kPageBytes, true);
            vmm->ensureDataBacked(
                os->leafFrame(p, base + i * kPageBytes));
        }
    };
    populate(pid);
    os->exitProcess(pid);
    std::uint64_t pt_free = vmm->ptAllocator().freeFrames();
    std::uint64_t data_free = vmm->dataAllocator().freeFrames();
    EXPECT_EQ(vmm->backedDataFrames(), 0u);

    ProcId second = os->createProcess(VirtMode::Agile);
    populate(second);
    os->reapProcess(second);
    EXPECT_FALSE(os->hasProcess(second));
    EXPECT_FALSE(smgr->hasProcess(second));
    EXPECT_EQ(vmm->backedDataFrames(), 0u);
    EXPECT_EQ(vmm->ptAllocator().freeFrames(), pt_free);
    EXPECT_EQ(vmm->dataAllocator().freeFrames(), data_free);
}

TEST_F(GuestOsTest, ReapKeepsForkSharedFrames)
{
    makeVirt();
    Addr base = os->mmap(pid, 4 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 4; ++i) {
        os->handlePageFault(pid, base + i * kPageBytes, true);
        vmm->ensureDataBacked(os->leafFrame(pid, base + i * kPageBytes));
    }
    ProcId child = os->fork(pid);
    FrameId shared = os->leafFrame(child, base);
    os->reapProcess(pid);
    // The reaped parent only dropped its references; the child still
    // maps the shared frames.
    EXPECT_EQ(os->leafFrame(child, base), shared);
    EXPECT_NE(vmm->backing(shared), 0u);
    os->reapProcess(child);
    EXPECT_EQ(vmm->backedDataFrames(), 0u);
}

TEST_F(GuestOsTest, ReclaimEvictsOnlyCold)
{
    makeVirt();
    Addr base = os->mmap(pid, 32 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 32; ++i)
        os->handlePageFault(pid, base + i * kPageBytes, true);
    GuestProcess &p = os->process(pid);
    // First scan clears reference bits (demand paging set A on all).
    EXPECT_EQ(os->reclaimScan(pid, 32), 0u);
    // Re-reference half the pages.
    for (unsigned i = 0; i < 16; ++i)
        p.pt->entry(base + i * kPageBytes, 3)->accessed = true;
    // Second scan evicts the un-referenced half.
    EXPECT_EQ(os->reclaimScan(pid, 32), 16u);
    EXPECT_TRUE(p.pt->lookup(base).has_value());
    EXPECT_FALSE(p.pt->lookup(base + 20 * kPageBytes).has_value());
}

TEST_F(GuestOsTest, ClockHandRotates)
{
    makeVirt();
    Addr base = os->mmap(pid, 64 * kPageBytes, true, VmaKind::Anon);
    for (unsigned i = 0; i < 64; ++i)
        os->handlePageFault(pid, base + i * kPageBytes, true);
    // Two partial scans cover different pages.
    os->reclaimScan(pid, 16);
    Addr hand1 = os->process(pid).clockHand;
    os->reclaimScan(pid, 16);
    Addr hand2 = os->process(pid).clockHand;
    EXPECT_NE(hand1, hand2);
}

/**
 * A guest built the same way every time, for comparing reclaimScan
 * with a reference: 4K pages in two VMAs, three 2M THP mappings
 * between them, random guest accessed bits and, when shadowed, random
 * shadow accessed bits and a switching entry over the last VMA.
 */
struct ClockGuest
{
    explicit ClockGuest(bool agile)
    {
        VmmConfig vcfg;
        vcfg.guestPtFrames = 1 << 12;
        vcfg.guestDataFrames = 1 << 14;
        vmm = std::make_unique<Vmm>(&root, mem, vcfg, nullptr);
        smgr = std::make_unique<ShadowMgr>(&root, mem, *vmm,
                                           ShadowConfig{}, nullptr);
        GuestOsConfig cfg;
        cfg.pageSize = PageSize::Size2M;
        os = std::make_unique<GuestOs>(&root, mem, vmm.get(), smgr.get(),
                                       nullptr, cfg);
        pid = os->createProcess(agile ? VirtMode::Agile : VirtMode::Nested);
        Rng rng(11);
        // Each 4K VMA is too small to hold an aligned 2M region.
        const std::pair<Addr, Addr> vmas[] = {
            {kLowBase, 48 * kPageBytes},
            {kHugeBase, 3 * kLargePageBytes},
            {kHighBase, 40 * kPageBytes},
        };
        for (auto [base, len] : vmas) {
            EXPECT_TRUE(os->mmapFixed(pid, base, len, true, VmaKind::Anon));
            for (Addr va = base; va < base + len; va += kPageBytes)
                os->handlePageFault(pid, va, rng.nextBelow(2) == 0);
        }
        GuestProcess &p = os->process(pid);
        if (agile) {
            // Shadow fills set guest accessed bits, so fill first.
            for (auto [va, depth] : terminals(*p.pt))
                smgr->handleShadowFault(pid, va);
        }
        for (auto [va, depth] : terminals(*p.pt))
            p.pt->entry(va, depth)->accessed = rng.nextBelow(2) == 0;
        if (!agile)
            return;
        RadixPageTable &spt = *smgr->state(pid).spt;
        for (auto [va, depth] : terminals(spt))
            spt.entry(va, depth)->accessed = rng.nextBelow(2) == 0;
        smgr->convertToNested(pid, kHighBase, kPtLevels - 1);
    }

    static std::vector<std::pair<Addr, unsigned>>
    terminals(const RadixPageTable &pt)
    {
        std::vector<std::pair<Addr, unsigned>> out;
        pt.forEachTerminal([&](Addr va, const Pte &, unsigned depth) {
            out.emplace_back(va, depth);
        });
        return out;
    }

    /** Every shadow terminal as (va, depth, accessed, switching). */
    std::vector<std::tuple<Addr, unsigned, bool, bool>>
    shadowBits()
    {
        std::vector<std::tuple<Addr, unsigned, bool, bool>> out;
        if (!smgr->hasProcess(pid))
            return out;
        smgr->state(pid).spt->forEachTerminal(
            [&](Addr va, const Pte &pte, unsigned depth) {
                out.emplace_back(va, depth, pte.accessed, pte.switching);
            });
        return out;
    }

    static constexpr Addr kLowBase = 0x10000000;
    static constexpr Addr kHugeBase = 0x40000000;
    static constexpr Addr kHighBase = 0x80000000;

    stats::StatGroup root{"t"};
    PhysMem mem{1 << 16};
    std::unique_ptr<Vmm> vmm;
    std::unique_ptr<ShadowMgr> smgr;
    std::unique_ptr<GuestOs> os;
    ProcId pid = 0;
};

struct ClockItem
{
    Addr va;
    unsigned depth;
    bool accessed;
};

/**
 * Reference for reclaimScan's collection: one walk over the whole
 * guest table that sorts each terminal to its side of the hand, with a
 * budget per side, then appends the pages below the hand while the
 * after-hand budget lasts.
 */
std::vector<ClockItem>
fullWalkCollect(ClockGuest &g, std::uint64_t max_pages)
{
    GuestProcess &p = g.os->process(g.pid);
    bool shadowed = g.smgr->hasProcess(g.pid);
    std::vector<ClockItem> items, before_hand;
    std::uint64_t budget_after = 0, budget_before = 0;
    p.pt->forEachTerminal([&](Addr va, const Pte &pte, unsigned d) {
        if (pte.switching)
            return;
        bool after = va >= p.clockHand;
        auto &bucket = after ? items : before_hand;
        auto &budget = after ? budget_after : budget_before;
        if (budget >= max_pages)
            return;
        budget += spanAtDepth(d) / kPageBytes;
        bool accessed = pte.accessed;
        if (!accessed && shadowed)
            accessed = g.smgr->consumeShadowAccessed(g.pid, va);
        bucket.push_back({va, d, accessed});
    });
    for (const ClockItem &it : before_hand) {
        if (budget_after >= max_pages)
            break;
        budget_after += spanAtDepth(it.depth) / kPageBytes;
        items.push_back(it);
    }
    return items;
}

/** reclaimScan from @p hand must evict, clear and consume exactly what
 *  the reference collection picks, and leave the hand where it says. */
void
checkClockMatchesFullWalk(bool agile, Addr hand, std::uint64_t max_pages)
{
    SCOPED_TRACE(std::string(agile ? "agile" : "nested") + " hand=" +
                 std::to_string(hand) + " budget=" +
                 std::to_string(max_pages));
    ClockGuest ref(agile), real(agile);
    ref.os->process(ref.pid).clockHand = hand;
    real.os->process(real.pid).clockHand = hand;
    auto bits_before = ref.shadowBits();
    std::vector<ClockItem> items = fullWalkCollect(ref, max_pages);
    auto ref_bits = ref.shadowBits();

    // Collection ends before the first guest PT write, so the shadow
    // bits seen there are the ones collection left.
    std::optional<decltype(ref_bits)> real_bits;
    std::vector<std::pair<Addr, unsigned>> writes;
    real.os->onAnyGptWrite = [&](ProcId, Addr va, unsigned depth) {
        if (!real_bits)
            real_bits = real.shadowBits();
        writes.emplace_back(va, depth);
    };
    std::uint64_t evicted = real.os->reclaimScan(real.pid, max_pages);
    if (!real_bits)
        real_bits = real.shadowBits();
    EXPECT_EQ(*real_bits, ref_bits);
    if (agile && hand == 0 && max_pages > 4096) {
        EXPECT_NE(ref_bits, bits_before); // the scan consumed some
    }

    std::vector<std::pair<Addr, unsigned>> expect_writes;
    std::uint64_t expect_evicted = 0;
    for (const ClockItem &it : items) {
        expect_writes.emplace_back(it.va, it.depth);
        expect_evicted += !it.accessed;
    }
    EXPECT_EQ(writes, expect_writes);
    EXPECT_EQ(evicted, expect_evicted);
    GuestProcess &p = real.os->process(real.pid);
    EXPECT_EQ(p.clockHand,
              items.empty() ? 0 : items.back().va + kPageBytes);
    for (const ClockItem &it : items) {
        auto m = p.pt->lookup(it.va);
        if (it.accessed) {
            ASSERT_TRUE(m.has_value());
            EXPECT_FALSE(m->pte.accessed);
        } else {
            EXPECT_FALSE(m.has_value());
        }
    }
}

TEST(ReclaimClock, MatchesFullWalkCollection)
{
    const Addr hands[] = {
        0,
        ClockGuest::kLowBase + 20 * kPageBytes,
        ClockGuest::kHugeBase + kLargePageBytes + kPageBytes, // in a 2M
        ClockGuest::kHighBase + 39 * kPageBytes,
        Addr{1} << 47, // past the last mapping
    };
    for (bool agile : {true, false}) {
        for (Addr hand : hands) {
            for (std::uint64_t budget : {0, 1, 16, 600, 1 << 20})
                checkClockMatchesFullWalk(agile, hand, budget);
        }
    }
}

TEST(ReclaimClock, AgileGuestHasSwitchingEntries)
{
    ClockGuest g(true);
    bool switching = false;
    for (const auto &t : g.shadowBits())
        switching |= std::get<3>(t);
    EXPECT_TRUE(switching);
}

TEST_F(GuestOsTest, NativeModeUsesHostFrames)
{
    makeNative();
    Addr base = os->mmap(pid, 2 * kPageBytes, true, VmaKind::Anon);
    ASSERT_TRUE(os->handlePageFault(pid, base, true));
    FrameId f = os->leafFrame(pid, base);
    ASSERT_NE(f, 0u);
    // Native frames are host frames directly.
    EXPECT_EQ(mem.kind(f), FrameKind::Data);
    EXPECT_EQ(os->context(pid).mode, VirtMode::Native);
    EXPECT_EQ(os->context(pid).nativeRoot,
              os->process(pid).pt->root());
}

TEST_F(GuestOsTest, FileContentDeterministicAndShared)
{
    makeVirt();
    Addr a = os->mmap(pid, 4 * kPageBytes, true, VmaKind::File, 42);
    Addr b = os->mmap(pid, 4 * kPageBytes, true, VmaKind::File, 42);
    os->handlePageFault(pid, a, false);
    os->handlePageFault(pid, b, false);
    FrameId fa = os->leafFrame(pid, a);
    FrameId fb = os->leafFrame(pid, b);
    vmm->ensureDataBacked(fa);
    vmm->ensureDataBacked(fb);
    // Same file offset => same content id => dedupable.
    EXPECT_EQ(mem.contentId(vmm->backing(fa)),
              mem.contentId(vmm->backing(fb)));
    EXPECT_EQ(vmm->sharePages(), 1u);
}

TEST_F(GuestOsTest, RandomMappedVaLandsInsideVmas)
{
    makeVirt();
    os->mmap(pid, 16 * kPageBytes, true, VmaKind::Anon);
    os->mmap(pid, 4 * kPageBytes, true, VmaKind::Anon);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        Addr va = os->randomMappedVa(pid, rng);
        ASSERT_NE(va, 0u);
        EXPECT_TRUE(os->vmaWritable(pid, va));
    }
}

TEST_F(GuestOsTest, MmapFixedCollisionFails)
{
    makeVirt();
    ASSERT_TRUE(os->mmapFixed(pid, 0x40000000, 0x2000, true,
                              VmaKind::Anon));
    EXPECT_FALSE(os->mmapFixed(pid, 0x40001000, 0x2000, true,
                               VmaKind::Anon));
}

} // namespace
} // namespace ap
