/**
 * @file
 * Unit tests for PTE encoding, PhysMem, and RadixPageTable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "base/bitfield.hh"
#include "base/rng.hh"
#include "mem/frame_alloc.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/pte.hh"

namespace ap
{
namespace
{

TEST(Pte, RawRoundTrip)
{
    Pte p;
    p.valid = true;
    p.writable = true;
    p.user = false;
    p.accessed = true;
    p.dirty = true;
    p.pageSize = true;
    p.switching = true;
    p.pfn = 0xabcde;
    EXPECT_EQ(Pte::fromRaw(p.toRaw()), p);
}

TEST(Pte, DefaultIsInvalid)
{
    Pte p;
    EXPECT_FALSE(p.valid);
    EXPECT_EQ(Pte::fromRaw(0), p);
}

TEST(Pte, SwitchingBitIsSoftwareBit)
{
    Pte p;
    p.switching = true;
    EXPECT_EQ(p.toRaw(), std::uint64_t{1} << pte_bits::kSwitching);
}

class PhysMemTest : public ::testing::Test
{
  protected:
    PhysMem mem{1024};
};

TEST_F(PhysMemTest, AllocDistinctFrames)
{
    std::set<FrameId> seen;
    for (int i = 0; i < 100; ++i) {
        FrameId f = mem.allocData(i);
        ASSERT_NE(f, PhysMem::kNoFrame);
        EXPECT_TRUE(seen.insert(f).second);
    }
    EXPECT_EQ(mem.allocated(), 100u);
}

TEST_F(PhysMemTest, FrameZeroNeverAllocated)
{
    for (int i = 0; i < 1000; ++i) {
        FrameId f = mem.allocData(0);
        if (f == PhysMem::kNoFrame)
            break;
        EXPECT_NE(f, 0u);
    }
}

TEST_F(PhysMemTest, ExhaustionReturnsNoFrame)
{
    while (mem.allocData(0) != PhysMem::kNoFrame) {
    }
    EXPECT_EQ(mem.freeFrames(), 0u);
    EXPECT_EQ(mem.allocData(0), PhysMem::kNoFrame);
}

TEST_F(PhysMemTest, FreeRecycles)
{
    FrameId f = mem.allocData(7);
    mem.free(f);
    EXPECT_EQ(mem.kind(f), FrameKind::Free);
    FrameId g = mem.allocTable(TableOwner::HostPt);
    EXPECT_EQ(g, f); // LIFO free list
    EXPECT_EQ(mem.kind(g), FrameKind::PageTable);
}

TEST_F(PhysMemTest, DoubleFreePanics)
{
    FrameId f = mem.allocData(0);
    mem.free(f);
    EXPECT_THROW(mem.free(f), std::logic_error);
}

TEST_F(PhysMemTest, TableFramesZeroed)
{
    FrameId f = mem.allocTable(TableOwner::ShadowPt);
    for (const Pte &pte : mem.table(f))
        EXPECT_FALSE(pte.valid);
}

TEST_F(PhysMemTest, TableAccessOnDataFramePanics)
{
    FrameId f = mem.allocData(0);
    EXPECT_THROW(mem.table(f), std::logic_error);
}

TEST_F(PhysMemTest, ContentIdTracked)
{
    FrameId f = mem.allocData(123);
    EXPECT_EQ(mem.contentId(f), 123u);
    mem.setContentId(f, 456);
    EXPECT_EQ(mem.contentId(f), 456u);
}

TEST_F(PhysMemTest, TableOwnerCounts)
{
    FrameId a = mem.allocTable(TableOwner::GuestPt);
    mem.allocTable(TableOwner::GuestPt);
    mem.allocTable(TableOwner::ShadowPt);
    EXPECT_EQ(mem.tableFrames(TableOwner::GuestPt), 2u);
    EXPECT_EQ(mem.tableFrames(TableOwner::ShadowPt), 1u);
    mem.free(a);
    EXPECT_EQ(mem.tableFrames(TableOwner::GuestPt), 1u);
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest() : space(mem, TableOwner::HostPt), pt(space, "pt") {}

    PhysMem mem{4096};
    HostPtSpace space;
    RadixPageTable pt;
};

TEST_F(PageTableTest, EmptyLookupFails)
{
    EXPECT_FALSE(pt.lookup(0x1000).has_value());
    EXPECT_EQ(pt.mappingCount(), 0u);
    EXPECT_EQ(pt.pageCount(), 1u); // root only
}

TEST_F(PageTableTest, Map4KAndLookup)
{
    ASSERT_NE(pt.map(0x7000, 99, PageSize::Size4K, true), nullptr);
    auto m = pt.lookup(0x7abc);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->pfn, 99u);
    EXPECT_EQ(m->size, PageSize::Size4K);
    EXPECT_EQ(m->depth, 3u);
    EXPECT_TRUE(m->pte.writable);
    EXPECT_EQ(pt.pageCount(), 4u); // root + 3 intermediate
}

TEST_F(PageTableTest, Map2MAndLookup)
{
    Addr va = 5 * kLargePageBytes;
    ASSERT_NE(pt.map(va, 77, PageSize::Size2M, false), nullptr);
    auto m = pt.lookup(va + 0x12345);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->pfn, 77u);
    EXPECT_EQ(m->size, PageSize::Size2M);
    EXPECT_EQ(m->depth, 2u);
    EXPECT_TRUE(m->pte.pageSize);
    EXPECT_FALSE(m->pte.writable);
    EXPECT_EQ(pt.pageCount(), 3u); // no leaf level needed
}

TEST_F(PageTableTest, PageSizeBitAbove2MDepthDoesNotEndLookup)
{
    // 2 MB is the largest page: a page-size bit in an entry above the
    // 2 MB depth maps nothing, so lookup walks on to the 4K leaf.
    Addr va = 3 * spanAtDepth(1) + kLargePageBytes + 5 * kPageBytes;
    ASSERT_NE(pt.map(va, 55, PageSize::Size4K, true), nullptr);
    for (unsigned d = 0; d < leafDepth(PageSize::Size2M); ++d)
        pt.entry(va, d)->pageSize = true;
    auto m = pt.lookup(va + 0x321);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, PageSize::Size4K);
    EXPECT_EQ(m->depth, 3u);
    EXPECT_EQ(m->pfn, 55u);
}

TEST_F(PageTableTest, DistinctVasDistinctMappings)
{
    for (Addr va = 0; va < 64 * kPageBytes; va += kPageBytes)
        ASSERT_NE(pt.map(va, frameOf(va) + 1000, PageSize::Size4K, true),
                  nullptr);
    for (Addr va = 0; va < 64 * kPageBytes; va += kPageBytes) {
        auto m = pt.lookup(va);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(m->pfn, frameOf(va) + 1000);
    }
    EXPECT_EQ(pt.mappingCount(), 64u);
}

TEST_F(PageTableTest, RemapReplaces)
{
    pt.map(0x4000, 1, PageSize::Size4K, true);
    pt.map(0x4000, 2, PageSize::Size4K, true);
    EXPECT_EQ(pt.lookup(0x4000)->pfn, 2u);
    EXPECT_EQ(pt.mappingCount(), 1u);
}

TEST_F(PageTableTest, UnmapRemoves)
{
    pt.map(0x4000, 1, PageSize::Size4K, true);
    EXPECT_TRUE(pt.unmap(0x4000));
    EXPECT_FALSE(pt.lookup(0x4000).has_value());
    EXPECT_FALSE(pt.unmap(0x4000));
}

TEST_F(PageTableTest, LargePageReplacesSmallSubtree)
{
    // Fill a 2 MB region with 4 KB pages, then promote it.
    for (unsigned i = 0; i < kPtEntries; ++i)
        pt.map(i * kPageBytes, 2000 + i, PageSize::Size4K, true);
    std::uint64_t pages_before = pt.pageCount();
    ASSERT_NE(pt.map(0, 4242, PageSize::Size2M, true), nullptr);
    EXPECT_EQ(pt.pageCount(), pages_before - 1); // leaf table freed
    auto m = pt.lookup(0x5000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->pfn, 4242u);
    EXPECT_EQ(m->size, PageSize::Size2M);
}

TEST_F(PageTableTest, SmallPageBreaksLargeMapping)
{
    pt.map(0, 4242, PageSize::Size2M, true);
    ASSERT_NE(pt.map(0x3000, 9, PageSize::Size4K, true), nullptr);
    EXPECT_EQ(pt.lookup(0x3000)->pfn, 9u);
    // The rest of the old 2 MB mapping is gone (demotion splits it).
    EXPECT_FALSE(pt.lookup(0x4000).has_value());
}

TEST_F(PageTableTest, EntryAtDepth)
{
    pt.map(0x123456789000, 42, PageSize::Size4K, true);
    for (unsigned d = 0; d < kPtLevels; ++d) {
        Pte *e = pt.entry(0x123456789000, d);
        ASSERT_NE(e, nullptr) << "depth " << d;
        EXPECT_TRUE(e->valid);
    }
    EXPECT_EQ(pt.entry(0x123456789000, 3)->pfn, 42u);
    // A va with no path returns nullptr below the root.
    EXPECT_EQ(pt.entry(0x7fff00000000, 3), nullptr);
    ASSERT_NE(pt.entry(0x7fff00000000, 0), nullptr);
    EXPECT_FALSE(pt.entry(0x7fff00000000, 0)->valid);
}

TEST_F(PageTableTest, TableFrameIdentifiesContainingPage)
{
    pt.map(0x5000, 1, PageSize::Size4K, true);
    pt.map(0x6000, 2, PageSize::Size4K, true);
    // Same leaf table page for adjacent pages.
    EXPECT_EQ(pt.tableFrame(0x5000, 3), pt.tableFrame(0x6000, 3));
    EXPECT_EQ(pt.tableFrame(0x5000, 0), pt.root());
    EXPECT_EQ(pt.tableFrame(0x7fff00000000, 3), PhysMem::kNoFrame);
}

TEST_F(PageTableTest, InvalidateEntryFreesSubtree)
{
    for (unsigned i = 0; i < 8; ++i)
        pt.map(i * kPageBytes, 100 + i, PageSize::Size4K, true);
    std::uint64_t before = pt.pageCount();
    // Invalidate the depth-2 entry covering the whole 2 MB region.
    EXPECT_TRUE(pt.invalidateEntry(0, 2));
    EXPECT_EQ(pt.pageCount(), before - 1);
    EXPECT_FALSE(pt.lookup(0).has_value());
    EXPECT_FALSE(pt.invalidateEntry(0, 2));
}

TEST_F(PageTableTest, ClearDropsEverything)
{
    for (unsigned i = 0; i < 32; ++i)
        pt.map(i * kLargePageBytes, i, PageSize::Size2M, true);
    pt.clear();
    EXPECT_EQ(pt.pageCount(), 1u);
    EXPECT_EQ(pt.mappingCount(), 0u);
    // Table is usable after clear.
    pt.map(0x1000, 3, PageSize::Size4K, true);
    EXPECT_EQ(pt.lookup(0x1000)->pfn, 3u);
}

TEST_F(PageTableTest, ForEachTerminalVisitsAll)
{
    pt.map(0x1000, 1, PageSize::Size4K, true);
    pt.map(kLargePageBytes * 9, 2, PageSize::Size2M, true);
    std::set<Addr> vas;
    pt.forEachTerminal([&](Addr va, const Pte &, unsigned) {
        vas.insert(va);
    });
    EXPECT_EQ(vas.size(), 2u);
    EXPECT_TRUE(vas.count(0x1000));
    EXPECT_TRUE(vas.count(kLargePageBytes * 9));
}

/** A table mixing 4K leaves, 2M leaves and a switching entry across
 *  several root entries, for the start-VA and early-stop visits. */
class TerminalVisitor : public PageTableTest
{
  protected:
    struct Terminal
    {
        Addr va;
        unsigned depth;
        bool operator==(const Terminal &) const = default;
    };

    TerminalVisitor()
    {
        Rng rng(5);
        FrameId pfn = 1;
        for (int i = 0; i < 40; ++i)
            pt.map(pageBase(0x10000000 + rng.nextBelow(Addr{1} << 26)),
                   pfn++, PageSize::Size4K, true);
        for (Addr va : {Addr{9} * kLargePageBytes,
                        Addr{10} * kLargePageBytes,
                        (Addr{3} << 39) + Addr{5} * kLargePageBytes})
            pt.map(va, pfn++, PageSize::Size2M, true);
        pt.map((Addr{1} << 47) - kPageBytes, pfn++, PageSize::Size4K, true);
        Pte *e = pt.ensurePath(Addr{2} << 39, 2);
        e->valid = true;
        e->switching = true;
        e->pfn = 77;
        pt.forEachTerminal([&](Addr va, const Pte &, unsigned depth) {
            all.push_back({va, depth});
        });
    }

    /** Terminals visited from @p from, stopping after @p limit. */
    std::vector<Terminal>
    visit(Addr from, std::size_t limit = ~std::size_t{0})
    {
        std::vector<Terminal> out;
        pt.forEachTerminal(
            [&](Addr va, const Pte &, unsigned depth) {
                out.push_back({va, depth});
                return out.size() < limit;
            },
            from);
        return out;
    }

    /** The full walk's terminals with va >= @p from, at most @p limit. */
    std::vector<Terminal>
    expected(Addr from, std::size_t limit = ~std::size_t{0})
    {
        std::vector<Terminal> out;
        for (const Terminal &t : all) {
            if (t.va >= from && out.size() < limit)
                out.push_back(t);
        }
        return out;
    }

    std::vector<Terminal> all;
};

TEST_F(TerminalVisitor, FullWalkIsAscendingAndComplete)
{
    ASSERT_EQ(all.size(), pt.mappingCount());
    ASSERT_GE(all.size(), 40u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1].va, all[i].va);
    EXPECT_EQ(visit(0), all);
}

TEST_F(TerminalVisitor, StartVaYieldsExactlyTheSuffix)
{
    std::vector<Addr> starts = {0, 1, Addr{1} << 47, Addr{1} << 48,
                                ~Addr{0}};
    for (const Terminal &t : all) {
        starts.push_back(t.va);
        starts.push_back(t.va - 1);
        starts.push_back(t.va + 1);
        // Inside a 2M leaf: the straddling terminal is not visited.
        starts.push_back(t.va + kPageBytes);
        starts.push_back(t.va + kLargePageBytes / 2);
    }
    for (Addr from : starts) {
        SCOPED_TRACE(from);
        EXPECT_EQ(visit(from), expected(from));
    }
}

TEST_F(TerminalVisitor, FalseStopsTheWalk)
{
    std::vector<Addr> starts = {0};
    for (const Terminal &t : all) {
        if (t.depth == kPtLevels - 2) {
            starts.push_back(t.va);
            starts.push_back(t.va + kPageBytes); // straddled by a 2M leaf
        }
    }
    for (Addr from : starts) {
        for (std::size_t limit : {1, 2, 3, 7}) {
            SCOPED_TRACE(std::to_string(from) + " limit " +
                         std::to_string(limit));
            EXPECT_EQ(visit(from, limit), expected(from, limit));
        }
    }
}

TEST_F(PageTableTest, SwitchingEntryIsTerminal)
{
    // Build a path and plant a switching entry at depth 2 (as the
    // shadow manager does at a mode-switch point).
    Pte *e = pt.ensurePath(0x40000000, 2);
    ASSERT_NE(e, nullptr);
    e->valid = true;
    e->switching = true;
    e->pfn = 777; // host frame of next guest-PT level
    auto m = pt.lookup(0x40000000 + 0x1234);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->pte.switching);
    EXPECT_EQ(m->depth, 2u);
    EXPECT_EQ(m->pfn, 777u);
}

TEST_F(PageTableTest, DestructorFreesAllTablePages)
{
    std::uint64_t base = mem.allocated();
    {
        RadixPageTable t(space, "tmp");
        for (unsigned i = 0; i < 64; ++i)
            t.map(i * spanAtDepth(1), i, PageSize::Size4K, true);
        EXPECT_GT(mem.allocated(), base);
    }
    EXPECT_EQ(mem.allocated(), base);
}

TEST_F(PageTableTest, MapFailsGracefullyWhenSpaceExhausted)
{
    // Exhaust physical memory, then mapping a fresh region must return
    // nullptr rather than crash.
    while (mem.allocData(0) != PhysMem::kNoFrame) {
    }
    EXPECT_EQ(pt.map(0x123400000000, 1, PageSize::Size4K, true), nullptr);
}

// Property-style sweep: map/lookup agreement over many random addresses.
class PageTablePropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PageTablePropertyTest, RandomMapLookupUnmapAgree)
{
    PhysMem mem(1 << 16);
    HostPtSpace space(mem, TableOwner::HostPt);
    RadixPageTable pt(space, "prop");
    Rng rng(GetParam());

    std::map<Addr, FrameId> model;
    for (int i = 0; i < 2000; ++i) {
        Addr va = pageBase(rng.next() & ((Addr{1} << 47) - 1));
        if (rng.chance(0.7)) {
            FrameId pfn = 1 + (rng.next() & 0xffffff);
            // Model semantics only hold for non-overlapping 4K pages.
            ASSERT_NE(pt.map(va, pfn, PageSize::Size4K, true), nullptr);
            model[va] = pfn;
        } else if (!model.empty()) {
            auto it = model.begin();
            std::advance(it, rng.nextBelow(model.size()));
            EXPECT_TRUE(pt.unmap(it->first));
            model.erase(it);
        }
    }
    EXPECT_EQ(pt.mappingCount(), model.size());
    for (const auto &[va, pfn] : model) {
        auto m = pt.lookup(va);
        ASSERT_TRUE(m.has_value()) << std::hex << va;
        EXPECT_EQ(m->pfn, pfn);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Contiguous-frame recycling (large-page churn must not exhaust pools)
// ---------------------------------------------------------------------

TEST(FrameAllocator, ContiguousRecyclesFreedGroups)
{
    // Pool holds exactly two 8-frame groups. Churning allocate/free
    // forever must keep succeeding: freed groups are recycled once the
    // fresh region is exhausted.
    FrameAllocator a(24);
    for (int round = 0; round < 10; ++round) {
        FrameId f1 = a.allocContiguous(8);
        FrameId f2 = a.allocContiguous(8);
        ASSERT_NE(f1, 0u) << "round " << round;
        ASSERT_NE(f2, 0u) << "round " << round;
        EXPECT_EQ(f1 % 8, 0u);
        EXPECT_EQ(f2 % 8, 0u);
        for (FrameId f = f1; f < f1 + 8; ++f)
            a.free(f);
        for (FrameId f = f2; f < f2 + 8; ++f)
            a.free(f);
    }
    EXPECT_EQ(a.allocated(), 0u);
}

TEST(FrameAllocator, ContiguousRequiresAlignedRun)
{
    FrameAllocator a(24);
    FrameId f1 = a.allocContiguous(8);
    FrameId f2 = a.allocContiguous(8);
    ASSERT_NE(f1, 0u);
    ASSERT_NE(f2, 0u);
    // Free a misaligned straddle (last half of group 1, first half of
    // group 2): 8 consecutive frames, but no aligned run of 8.
    for (FrameId f = f1 + 4; f < f1 + 8; ++f)
        a.free(f);
    for (FrameId f = f2; f < f2 + 4; ++f)
        a.free(f);
    EXPECT_EQ(a.allocContiguous(8), 0u);
    // Completing either group makes an aligned run available again.
    for (FrameId f = f1; f < f1 + 4; ++f)
        a.free(f);
    EXPECT_EQ(a.allocContiguous(8), f1);
}

TEST(PhysMem, ContiguousDataRecyclesFreedGroups)
{
    PhysMem mem(24);
    for (int round = 0; round < 10; ++round) {
        FrameId f1 = mem.allocDataContiguous(8);
        FrameId f2 = mem.allocDataContiguous(8);
        ASSERT_NE(f1, PhysMem::kNoFrame) << "round " << round;
        ASSERT_NE(f2, PhysMem::kNoFrame) << "round " << round;
        for (FrameId f = f1; f < f1 + 8; ++f)
            mem.free(f);
        for (FrameId f = f2; f < f2 + 8; ++f)
            mem.free(f);
    }
}

// ---------------------------------------------------------------------
// High-water growth of the frame tables, and restore validation
// ---------------------------------------------------------------------

TEST(PhysMem, NeverHandedOutFrameReadsFree)
{
    PhysMem mem(1u << 18);
    FrameId d = mem.allocData(5);
    FrameId t = mem.allocTable(TableOwner::HostPt);
    ASSERT_NE(d, PhysMem::kNoFrame);
    ASSERT_NE(t, PhysMem::kNoFrame);
    EXPECT_EQ(mem.kind(t), FrameKind::PageTable);
    // Frames past the high-water mark, up to the last one, were never
    // handed out: they read Free/None and are no page-table frame.
    for (FrameId f : {t + 1, FrameId{1000}, FrameId{1u << 18}}) {
        SCOPED_TRACE(f);
        EXPECT_EQ(mem.kind(f), FrameKind::Free);
        EXPECT_EQ(mem.owner(f), TableOwner::None);
        EXPECT_EQ(mem.tableOrNull(f), nullptr);
        EXPECT_THROW(mem.table(f), std::logic_error);
        EXPECT_THROW(mem.contentId(f), std::logic_error);
        EXPECT_THROW(mem.free(f), std::logic_error);
    }
    EXPECT_THROW(mem.kind((1u << 18) + 1), std::logic_error);
    // Allocation keeps growing the tables frame by frame.
    FrameId t2 = mem.allocTable(TableOwner::GuestPt);
    EXPECT_EQ(t2, t + 1);
    EXPECT_EQ(mem.kind(t2), FrameKind::PageTable);
    EXPECT_NE(mem.tableOrNull(t2), nullptr);
}

TEST(PhysMem, ContiguousAllocationGrowsPastAlignmentGap)
{
    PhysMem mem(1u << 12);
    FrameId first = mem.allocDataContiguous(512, 9);
    ASSERT_EQ(first, 512u);
    EXPECT_EQ(mem.kind(first + 511), FrameKind::Data);
    EXPECT_EQ(mem.contentId(first + 511), 9u);
    EXPECT_EQ(mem.kind(first + 512), FrameKind::Free);
    // The skipped alignment gap is served before anything fresh.
    EXPECT_LT(mem.allocData(), first);
}

/** A PMEM payload whose live frames are all plain data. */
std::vector<std::uint8_t>
pmemPayload(std::uint64_t capacity, std::uint64_t allocated,
            std::uint64_t next_fresh, const std::vector<FrameId> &free_list)
{
    Serializer s;
    s.putMarker(0x4d454d50);
    s.putU64(capacity);
    s.putU64(allocated);
    s.putU64(next_fresh);
    s.putPodVector(free_list);
    for (int owner = 0; owner < 5; ++owner)
        s.putU64(0); // table counts
    for (FrameId f = 1; f < next_fresh; ++f) {
        bool free = std::find(free_list.begin(), free_list.end(), f) !=
                    free_list.end();
        s.putU8(static_cast<std::uint8_t>(free ? FrameKind::Free
                                               : FrameKind::Data));
        s.putU8(static_cast<std::uint8_t>(TableOwner::None));
        s.putU64(0);
        s.putBool(false);
    }
    return s.takeData();
}

TEST(PhysMem, RestoreRejectsAllocatorStateOutsideHandedOutFrames)
{
    const std::uint64_t cap = 64;
    {
        PhysMem mem(cap);
        const std::vector<std::uint8_t> bytes = pmemPayload(cap, 2, 4, {3});
        Deserializer ok(bytes);
        mem.restoreState(ok);
        ASSERT_TRUE(ok.ok());
        EXPECT_EQ(mem.allocData(), 3u);
        EXPECT_EQ(mem.allocData(), 4u);
    }
    struct Bad
    {
        const char *why;
        std::uint64_t allocated, next_fresh;
        std::vector<FrameId> free_list;
    };
    const Bad bad[] = {
        {"free frame 0", 2, 4, {0}},
        {"free frame at the cursor", 2, 4, {4}},
        {"free frame past capacity", 2, 4, {cap + 1}},
        {"free frame far past capacity", 2, 4, {FrameId{1} << 40}},
        {"cursor past capacity + 1", 2, cap + 2, {}},
        {"cursor 0", 0, 0, {}},
        {"more allocated than handed out", 4, 4, {}},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.why);
        PhysMem mem(cap);
        const std::vector<std::uint8_t> bytes =
            pmemPayload(cap, b.allocated, b.next_fresh, b.free_list);
        Deserializer d(bytes);
        mem.restoreState(d);
        EXPECT_FALSE(d.ok());
    }
}

TEST(FrameAllocator, RestoreRejectsStateOutsideCapacity)
{
    auto payload = [](std::uint64_t capacity, std::uint64_t allocated,
                      FrameId next, const std::vector<FrameId> &free_list) {
        Serializer s;
        s.putU64(capacity);
        s.putU64(allocated);
        s.putU64(next);
        s.putPodVector(free_list);
        s.putU64(0); // recycles
        s.putU64(0); // high water
        return s.takeData();
    };
    {
        FrameAllocator a(16);
        const std::vector<std::uint8_t> bytes = payload(16, 1, 3, {2});
        Deserializer d(bytes);
        a.restoreState(d);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(a.alloc(), 2u);
        EXPECT_EQ(a.alloc(), 3u);
    }
    {
        // A full pool: the cursor may sit at capacity + 1.
        FrameAllocator a(16);
        const std::vector<std::uint8_t> bytes = payload(16, 16, 17, {});
        Deserializer d(bytes);
        a.restoreState(d);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(a.alloc(), 0u);
    }
    struct Bad
    {
        const char *why;
        std::uint64_t allocated;
        FrameId next;
        std::vector<FrameId> free_list;
    };
    const Bad bad[] = {
        {"cursor past capacity + 1", 1, 18, {}},
        {"cursor 0", 0, 0, {}},
        {"free id 0", 1, 3, {0}},
        {"free id at the cursor", 1, 3, {3}},
        {"free id past capacity", 1, 3, {40}},
        {"more allocated than handed out", 3, 3, {}},
    };
    for (const Bad &b : bad) {
        SCOPED_TRACE(b.why);
        FrameAllocator a(16);
        const std::vector<std::uint8_t> bytes =
            payload(16, b.allocated, b.next, b.free_list);
        Deserializer d(bytes);
        a.restoreState(d);
        EXPECT_FALSE(d.ok());
    }
}

} // namespace
} // namespace ap
