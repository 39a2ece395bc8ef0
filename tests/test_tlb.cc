/**
 * @file
 * Unit tests for the TLB substrate: AssocCache, Tlb, TlbHierarchy,
 * PageWalkCache, NestedTlb, SptrCache.
 */

#include <gtest/gtest.h>

#include "tlb/assoc_cache.hh"
#include "tlb/nested_tlb.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_hierarchy.hh"
#include "vmm/sptr_cache.hh"

namespace ap
{
namespace
{

TEST(AssocCache, InsertLookup)
{
    AssocCache<int> c(16, 4);
    c.insert(1, 10);
    c.insert(2, 20);
    ASSERT_NE(c.lookup(1), nullptr);
    EXPECT_EQ(*c.lookup(1), 10);
    EXPECT_EQ(*c.lookup(2), 20);
    EXPECT_EQ(c.lookup(3), nullptr);
}

TEST(AssocCache, OverwriteSameKey)
{
    AssocCache<int> c(16, 4);
    c.insert(5, 1);
    c.insert(5, 2);
    EXPECT_EQ(*c.lookup(5), 2);
    EXPECT_EQ(c.size(), 1u);
}

TEST(AssocCache, LruEvictionWithinSet)
{
    // 4 sets x 2 ways; keys 0,4,8 map to set 0.
    AssocCache<int> c(8, 2);
    c.insert(0, 0);
    c.insert(4, 4);
    EXPECT_TRUE(c.lookup(0)); // 0 is now MRU
    bool evicted = c.insert(8, 8);
    EXPECT_TRUE(evicted);
    EXPECT_NE(c.lookup(0), nullptr);  // survived (was MRU)
    EXPECT_EQ(c.lookup(4), nullptr);  // LRU victim
    EXPECT_NE(c.lookup(8), nullptr);
}

TEST(AssocCache, FullyAssociative)
{
    AssocCache<int> c(4, 4);
    for (int i = 0; i < 4; ++i)
        c.insert(i * 100, i);
    EXPECT_EQ(c.size(), 4u);
    c.insert(999, 9); // evicts LRU (key 0)
    EXPECT_EQ(c.lookup(0), nullptr);
    EXPECT_NE(c.lookup(999), nullptr);
}

TEST(AssocCache, EraseAndEraseIf)
{
    AssocCache<int> c(16, 4);
    for (int i = 0; i < 10; ++i)
        c.insert(i, i);
    EXPECT_TRUE(c.erase(3));
    EXPECT_FALSE(c.erase(3));
    c.eraseIf([](std::uint64_t k, const int &) { return k % 2 == 0; });
    EXPECT_EQ(c.lookup(4), nullptr);
    EXPECT_NE(c.lookup(5), nullptr);
}

TEST(AssocCache, PeekDoesNotRefreshLru)
{
    AssocCache<int> c(2, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.peek(1);        // does not make 1 MRU
    c.insert(3, 3);   // evicts true LRU = 1
    EXPECT_EQ(c.lookup(1), nullptr);
}

TEST(Tlb, HitMissStats)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    EXPECT_FALSE(tlb.lookup(0x1000, 1).has_value());
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 42, .writable = true, .asid = 1});
    auto e = tlb.lookup(0x1fff, 1); // same page
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->pfn, 42u);
    EXPECT_TRUE(e->writable);
    EXPECT_EQ(tlb.hits.value(), 1.0);
    EXPECT_EQ(tlb.misses.value(), 1.0);
}

TEST(Tlb, AsidIsolation)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 42, .writable = true, .asid = 1});
    EXPECT_FALSE(tlb.lookup(0x1000, 2).has_value());
    EXPECT_TRUE(tlb.lookup(0x1000, 1).has_value());
}

TEST(Tlb, FlushAsidOnlyRemovesThatAsid)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    tlb.insert(0x1000, 2, TlbEntry{.pfn = 2, .writable = true, .asid = 2});
    tlb.flushAsid(1);
    EXPECT_FALSE(tlb.contains(0x1000, 1));
    EXPECT_TRUE(tlb.contains(0x1000, 2));
}

TEST(Tlb, FlushRange)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    tlb.insert(0x5000, 1, TlbEntry{.pfn = 5, .writable = true, .asid = 1});
    tlb.flushRange(0x4000, 0x2000, 1);
    EXPECT_TRUE(tlb.contains(0x1000, 1));
    EXPECT_FALSE(tlb.contains(0x5000, 1));
}

TEST(Tlb, LargePageGranularity)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 32, 4, PageSize::Size2M);
    tlb.insert(kLargePageBytes * 3, 1, TlbEntry{.pfn = 512 * 3, .writable = true, .asid = 1});
    // Any address inside the 2M region hits.
    EXPECT_TRUE(
        tlb.lookup(kLargePageBytes * 3 + 0x123456, 1).has_value());
    EXPECT_FALSE(
        tlb.lookup(kLargePageBytes * 4, 1).has_value());
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : h(&g, TlbHierarchyConfig{}) {}
    stats::StatGroup g{"g"};
    TlbHierarchy h;
};

TEST_F(HierarchyTest, MissThenFillThenL1Hit)
{
    auto r = h.probe(0x1000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::Miss);
    h.fill(0x1000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 7, .writable = true, .asid = 1});
    r = h.probe(0x1000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L1);
    EXPECT_EQ(r.entry.pfn, 7u);
}

TEST_F(HierarchyTest, L2HitRefillsL1)
{
    h.fill(0x1000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 7, .writable = true, .asid = 1});
    // Evict from the 64-entry 4-way L1 by filling 64+ conflicting pages;
    // the 512-entry L2 retains the line.
    for (Addr va = 0x100000; va < 0x100000 + 70 * kPageBytes;
         va += kPageBytes) {
        h.fill(va, 1, false, PageSize::Size4K, TlbEntry{.pfn = 9, .writable = true, .asid = 1});
    }
    // Depending on set mapping 0x1000 may or may not be evicted from
    // L1; force worst case by conflicting in its set: just check that
    // probing still succeeds somewhere in the hierarchy.
    auto r = h.probe(0x1000, 1, false);
    EXPECT_NE(r.level, TlbHitLevel::Miss);
}

TEST_F(HierarchyTest, InstructionAndDataSeparate)
{
    h.fill(0x2000, 1, true, PageSize::Size4K, TlbEntry{.pfn = 3, .writable = false, .asid = 1});
    // Data probe: the L1D misses but the unified L2 holds it.
    auto r = h.probe(0x2000, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L2);
}

TEST_F(HierarchyTest, LargePagesSkipL2)
{
    h.fill(0x0, 1, false, PageSize::Size2M, TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    auto r = h.probe(0x1234, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::L1);
    EXPECT_EQ(r.size, PageSize::Size2M);
    // Flush L1 2M entries; there is no L2 backing for 2M (Table III).
    h.l1d2m.flushAll();
    r = h.probe(0x1234, 1, false);
    EXPECT_EQ(r.level, TlbHitLevel::Miss);
}

TEST_F(HierarchyTest, FlushPageRemovesEverywhere)
{
    h.fill(0x3000, 1, false, PageSize::Size4K, TlbEntry{.pfn = 3, .writable = true, .asid = 1});
    h.flushPage(0x3000, 1);
    EXPECT_EQ(h.probe(0x3000, 1, false).level, TlbHitLevel::Miss);
}

TEST_F(HierarchyTest, L1HitMaskNarrowsWhenA4KEntrySharesThe2MPage)
{
    const Addr page2m = ~(kLargePageBytes - 1);
    const Addr page4k = ~(kPageBytes - 1);
    h.fill(0x0, 1, false, PageSize::Size2M,
           TlbEntry{.pfn = 1, .writable = true, .asid = 1});
    EXPECT_EQ(h.l1HitMask(0x1234, 1, false, PageSize::Size2M), page2m);

    // A 4K entry inside the 2M page (as the range backend fills): a
    // probe of its page hits it first, so only the served 4K page may
    // be filtered. Other ASIDs, other 2M pages and the instruction
    // stream are unaffected.
    h.fill(0x5000, 1, false, PageSize::Size4K,
           TlbEntry{.pfn = 9, .writable = true, .asid = 1});
    EXPECT_EQ(h.l1HitMask(0x1234, 1, false, PageSize::Size2M), page4k);
    EXPECT_EQ(h.l1HitMask(0x1234, 2, false, PageSize::Size2M), page2m);
    EXPECT_EQ(h.l1HitMask(kLargePageBytes, 1, false, PageSize::Size2M),
              page2m);
    EXPECT_EQ(h.l1HitMask(0x1234, 1, true, PageSize::Size2M), page2m);

    // Survives a snapshot round trip, and widens again once the 4K
    // entry is gone.
    Serializer s;
    h.saveState(s);
    stats::StatGroup g2{"g2"};
    TlbHierarchy copy(&g2, TlbHierarchyConfig{});
    Deserializer d(s.data());
    copy.restoreState(d);
    EXPECT_EQ(copy.l1HitMask(0x1234, 1, false, PageSize::Size2M), page4k);
    h.l1d4k.flushPage(0x5000, 1);
    EXPECT_EQ(h.l1HitMask(0x1234, 1, false, PageSize::Size2M), page2m);

    // 4K entries are their own page; instruction probes never reach
    // the 1G DTLB.
    EXPECT_EQ(h.l1HitMask(0x5000, 1, false, PageSize::Size4K), page4k);
    EXPECT_EQ(h.l1HitMask(0x1234, 1, true, PageSize::Size1G), Addr{0});
}

TEST(Pwc, MissWhenDisabled)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, false);
    pwc.fill(0x1000, 1, 3, 99, false);
    EXPECT_EQ(pwc.probe(0x1000, 1).startDepth, 0u);
}

TEST(Pwc, DeepestSkipWins)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va = 0x7f1234567000;
    pwc.fill(va, 1, 1, 11, false);
    pwc.fill(va, 1, 2, 22, false);
    pwc.fill(va, 1, 3, 33, true);
    PwcHit hit = pwc.probe(va, 1);
    EXPECT_EQ(hit.startDepth, 3u);
    EXPECT_EQ(hit.entry.frame, 33u);
    EXPECT_TRUE(hit.entry.nested);
}

TEST(Pwc, PrefixSharing)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va1 = 0x40000000;             // depth-1 prefix = 0
    Addr va2 = va1 + 5 * kPageBytes;   // same upper levels
    pwc.fill(va1, 1, 3, 77, false);
    // va2 shares all three upper levels with va1 (same 2M region).
    EXPECT_EQ(pwc.probe(va2, 1).startDepth, 3u);
    // An address in a different 2M region only shares depths 1-2.
    Addr va3 = va1 + kLargePageBytes;
    EXPECT_EQ(pwc.probe(va3, 1).startDepth, 0u);
}

TEST(Pwc, FlushRangeDropsCoveredPrefixes)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    Addr va = 0x40000000;
    pwc.fill(va, 1, 3, 1, false);
    pwc.flushRange(va, kLargePageBytes, 1);
    EXPECT_EQ(pwc.probe(va, 1).startDepth, 0u);
}

TEST(Pwc, AsidFlush)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    pwc.fill(0x1000, 1, 2, 5, false);
    pwc.fill(0x1000, 2, 2, 6, false);
    pwc.flushAsid(1);
    EXPECT_EQ(pwc.probe(0x1000, 1).startDepth, 0u);
    EXPECT_EQ(pwc.probe(0x1000, 2).startDepth, 2u);
}

TEST(NestedTlbTest, HitAfterInsert)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, true);
    EXPECT_FALSE(n.lookup(100).has_value());
    n.insert(100, NtlbEntry{200, PageSize::Size2M, true});
    auto e = n.lookup(100);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->hframe, 200u);
    EXPECT_EQ(e->hostSize, PageSize::Size2M);
    EXPECT_EQ(n.hits.value(), 1.0);
}

TEST(NestedTlbTest, DisabledNeverHits)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, false);
    n.insert(100, NtlbEntry{200, PageSize::Size4K, true});
    EXPECT_FALSE(n.lookup(100).has_value());
}

TEST(NestedTlbTest, FlushFrame)
{
    stats::StatGroup g("g");
    NestedTlb n(&g, 64, 4, true);
    n.insert(100, NtlbEntry{200, PageSize::Size4K, true});
    n.flushFrame(100);
    EXPECT_FALSE(n.lookup(100).has_value());
}

TEST(SptrCacheTest, HitAvoidsTrap)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 8);
    EXPECT_FALSE(c.lookup(10).has_value());
    c.insert(10, SptrEntry{111, 222});
    auto e = c.lookup(10);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->sptRoot, 111u);
    EXPECT_EQ(e->gptRootBacking, 222u);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(SptrCacheTest, SmallCapacityEvicts)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 4);
    for (FrameId f = 1; f <= 5; ++f)
        c.insert(f, SptrEntry{f * 10, 0});
    // Oldest (1) evicted by 5th insert in a 4-entry cache.
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(5).has_value());
}

TEST(SptrCacheTest, Invalidate)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 8);
    c.insert(10, SptrEntry{1, 2});
    c.invalidate(10);
    EXPECT_FALSE(c.lookup(10).has_value());
}

TEST(SptrCacheTest, ZeroEntriesChargesNoStats)
{
    // Capacity 0 models hardware without the extension: every probe
    // misses, but there is no structure to account hits/misses
    // against, so the stats must stay untouched.
    stats::StatGroup g("g");
    SptrCache c(&g, 0);
    EXPECT_EQ(c.capacity(), 0u);
    EXPECT_FALSE(c.lookup(10).has_value());
    c.insert(10, SptrEntry{1, 2}); // dropped
    EXPECT_FALSE(c.lookup(10).has_value());
    c.invalidate(10); // no-op
    c.clear();        // no-op
    EXPECT_EQ(c.hits.value(), 0.0);
    EXPECT_EQ(c.misses.value(), 0.0);
}

TEST(SptrCacheTest, MissAccountingOnlyOnRealProbes)
{
    stats::StatGroup g("g");
    SptrCache c(&g, 4);
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_FALSE(c.lookup(2).has_value());
    EXPECT_EQ(c.misses.value(), 2.0);
    c.insert(1, SptrEntry{10, 20});
    EXPECT_TRUE(c.lookup(1).has_value());
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 2.0);
}

} // namespace
} // namespace ap
