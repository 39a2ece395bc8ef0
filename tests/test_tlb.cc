/**
 * @file
 * Unit tests for the TLB substrate: AssocCache, Tlb, TlbHierarchy,
 * PageWalkCache, NestedTlb, SptrCache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "base/bitfield.hh"
#include "base/rng.hh"
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

    // 4K entries are their own page.
    EXPECT_EQ(h.l1HitMask(0x5000, 1, false, PageSize::Size4K), page4k);
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

template <typename T>
std::vector<std::uint8_t>
stateBytes(const T &t)
{
    Serializer s;
    t.saveState(s);
    return s.data();
}

/** Key of (prefix, asid) in the layout Tlb and PageWalkCache share. */
std::uint64_t
taggedKey(std::uint64_t prefix, ProcId asid)
{
    return prefix | (std::uint64_t{asid} << kAsidKeyShift);
}

/** The whole-structure range flush: one eraseIf pass that drops the
 *  keys of @p asid whose prefix lies in [base, base+len) >> shift. */
template <typename V>
void
referenceFlush(AssocCache<V> &c, unsigned shift, Addr base, Addr len,
               ProcId asid)
{
    if (len == 0)
        return;
    std::uint64_t lo = base >> shift;
    std::uint64_t hi = (base + len - 1) >> shift;
    c.eraseIf([=](std::uint64_t k, const V &) {
        std::uint64_t prefix =
            k & ((std::uint64_t{1} << kAsidKeyShift) - 1);
        return (k >> kAsidKeyShift) == asid && prefix >= lo &&
               prefix <= hi;
    });
}

/** Range lengths around the per-key/eraseIf boundary, in granules. */
std::set<std::uint64_t>
boundaryCounts(std::size_t sets)
{
    return {0, 1, sets - 1, sets, sets + 1};
}

struct TlbGeometryCase
{
    const char *name;
    TlbGeometry geo;
    PageSize ps;
};

TEST(RangeFlushEquivalence, TlbMatchesWholeStructurePass)
{
    const TlbHierarchyConfig cfg;
    const TlbGeometryCase cases[] = {
        {"l1d4k", cfg.l1d4k, PageSize::Size4K},
        {"l1d2m", cfg.l1d2m, PageSize::Size2M},
        {"l1i4k", cfg.l1i4k, PageSize::Size4K},
        {"l1i2m", cfg.l1i2m, PageSize::Size2M},
        {"l2u4k", cfg.l2u4k, PageSize::Size4K},
    };
    Rng rng(17);
    for (const TlbGeometryCase &c : cases) {
        const std::size_t sets = c.geo.entries / c.geo.ways;
        const unsigned shift = pageShift(c.ps);
        const Addr page = pageBytes(c.ps);
        // A window of 4*sets+8 granules, 2M-aligned.
        const Addr window = Addr{1} << 40;
        for (std::uint64_t count : boundaryCounts(sets)) {
            for (int trial = 0; trial < 24; ++trial) {
                SCOPED_TRACE(std::string(c.name) + " pages=" +
                             std::to_string(count) + " trial=" +
                             std::to_string(trial));
                stats::StatGroup g("g");
                Tlb tlb("t", &g, c.geo.entries, c.geo.ways, c.ps);
                for (std::size_t i = 0; i < 3 * c.geo.entries; ++i) {
                    Addr va = window + rng.nextBelow(4 * sets + 8) * page;
                    auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                    if (rng.nextBelow(4) == 0) {
                        tlb.find(va, asid); // stir the LRU stamps
                    } else {
                        tlb.insert(va, asid,
                                   TlbEntry{.pfn = i, .asid = asid});
                    }
                }
                AssocCache<TlbEntry> ref(c.geo.entries, c.geo.ways);
                {
                    auto bytes = stateBytes(tlb);
                    Deserializer d(bytes);
                    ref.restoreState(d);
                    ASSERT_TRUE(d.ok());
                }
                std::multiset<std::tuple<Addr, ProcId>> expected;
                tlb.forEach([&](Addr va, ProcId asid, const TlbEntry &) {
                    expected.emplace(va, asid);
                });

                Addr base = window + rng.nextBelow(3 * sets + 2) * page;
                Addr len = count * page;
                auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                tlb.flushRange(base, len, asid);
                referenceFlush(ref, shift, base, len, asid);
                EXPECT_EQ(stateBytes(tlb), stateBytes(ref));

                // ASID isolation: exactly the flushed ASID's entries
                // inside the range went.
                for (auto it = expected.begin(); it != expected.end();) {
                    auto [va, a] = *it;
                    bool inside = a == asid && va >= base &&
                                  va < base + len;
                    it = inside ? expected.erase(it) : std::next(it);
                }
                std::multiset<std::tuple<Addr, ProcId>> kept;
                tlb.forEach([&](Addr va, ProcId a, const TlbEntry &) {
                    kept.emplace(va, a);
                });
                EXPECT_EQ(kept, expected);

                // The next insert into the flushed set picks the same
                // LRU victim.
                tlb.insert(base, asid, TlbEntry{.pfn = 999, .asid = asid});
                ref.insert(taggedKey(base >> shift, asid),
                           TlbEntry{.pfn = 999, .asid = asid});
                EXPECT_EQ(stateBytes(tlb), stateBytes(ref));
            }
        }
    }
}

TEST(RangeFlushEquivalence, TlbSummarySkipMatchesWholeStructurePass)
{
    // A few entries scattered over many 2M regions leave most summary
    // bits clear, so flushes of every width, some wrapping past bit 63
    // of the summary, take the early return as well as the erase.
    struct Case
    {
        std::size_t entries, ways;
        PageSize ps;
    };
    const Case cases[] = {{64, 4, PageSize::Size4K},
                          {32, 4, PageSize::Size2M}};
    const std::uint64_t regions[] = {0, 1, 2, 5, 61, 62, 63, 64, 100};
    Rng rng(23);
    for (const Case &c : cases) {
        const unsigned shift = pageShift(c.ps);
        const unsigned rshift = pageShift(PageSize::Size2M);
        const std::uint64_t per_region = std::uint64_t{1} << (rshift - shift);
        for (std::uint64_t span : regions) {
            for (int trial = 0; trial < 64; ++trial) {
                SCOPED_TRACE(std::to_string(shift) + " regions=" +
                             std::to_string(span) + " trial=" +
                             std::to_string(trial));
                stats::StatGroup g("g");
                Tlb tlb("t", &g, c.entries, c.ways, c.ps);
                const std::uint64_t n = 1 + rng.nextBelow(6);
                for (std::uint64_t i = 0; i < n; ++i) {
                    Addr va = (rng.nextBelow(200) << rshift) +
                              (rng.nextBelow(per_region) << shift);
                    auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                    tlb.insert(va, asid, TlbEntry{.pfn = i, .asid = asid});
                }
                AssocCache<TlbEntry> ref(c.entries, c.ways);
                {
                    auto bytes = stateBytes(tlb);
                    Deserializer d(bytes);
                    ref.restoreState(d);
                    ASSERT_TRUE(d.ok());
                }
                Addr base = (rng.nextBelow(200) << rshift) +
                            (rng.nextBelow(per_region) << shift);
                Addr len = (span << rshift) + (Addr{1} << shift);
                auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                tlb.flushRange(base, len, asid);
                referenceFlush(ref, shift, base, len, asid);
                EXPECT_EQ(stateBytes(tlb), stateBytes(ref));
            }
        }
    }
}

TEST(RangeFlushEquivalence, PwcMatchesWholeStructurePass)
{
    const std::size_t entries = 32, ways = 4, sets = entries / ways;
    Rng rng(29);
    for (unsigned depth = 1; depth < kPtLevels; ++depth) {
        // The table resuming at `depth` keys on VA >> shift: one key
        // per 512 GB, 1 GB or 2 MB prefix.
        const unsigned shift =
            kPageShift + (kPtLevels - depth) * kLevelBits;
        const Addr granule = Addr{1} << shift;
        const Addr window = Addr{1} << 44;
        for (std::uint64_t count : boundaryCounts(sets)) {
            for (int trial = 0; trial < 24; ++trial) {
                SCOPED_TRACE("depth=" + std::to_string(depth) +
                             " prefixes=" + std::to_string(count) +
                             " trial=" + std::to_string(trial));
                stats::StatGroup g("g");
                PageWalkCache pwc(&g, entries, ways, true);
                for (std::size_t i = 0; i < 6 * entries; ++i) {
                    Addr va = window +
                              rng.nextBelow((4 * sets + 8) * granule);
                    auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                    if (rng.nextBelow(4) == 0) {
                        pwc.probe(va, asid); // stir the LRU stamps
                    } else {
                        pwc.fill(va, asid,
                                 1 + static_cast<unsigned>(
                                         rng.nextBelow(kPtLevels - 1)),
                                 i, rng.nextBelow(2) == 0);
                    }
                }
                std::vector<AssocCache<PwcEntry>> ref;
                {
                    auto bytes = stateBytes(pwc);
                    Deserializer d(bytes);
                    for (unsigned t = 1; t < kPtLevels; ++t) {
                        ref.emplace_back(entries, ways);
                        ref.back().restoreState(d);
                    }
                    ASSERT_TRUE(d.ok());
                }
                auto refBytes = [&] {
                    Serializer s;
                    for (const auto &t : ref)
                        t.saveState(s);
                    return s.data();
                };

                // Another ASID's prefix inside the range must survive.
                Addr base = window + rng.nextBelow(3 * sets + 2) * granule;
                Addr len = count * granule;
                auto asid = static_cast<ProcId>(1 + rng.nextBelow(3));
                ProcId other = asid == 1 ? 2 : 1;
                pwc.fill(base, other, depth, 7, false);
                ref[depth - 1].insert(taggedKey(base >> shift, other),
                                      PwcEntry{7, false});
                pwc.flushRange(base, len, asid);
                for (unsigned t = 1; t < kPtLevels; ++t) {
                    referenceFlush(ref[t - 1],
                                   kPageShift +
                                       (kPtLevels - t) * kLevelBits,
                                   base, len, asid);
                }
                EXPECT_EQ(stateBytes(pwc), refBytes());
                EXPECT_NE(ref[depth - 1].peek(
                              taggedKey(base >> shift, other)),
                          nullptr);

                // The next fill into the flushed set picks the same
                // LRU victim.
                pwc.fill(base, asid, depth, 555, true);
                ref[depth - 1].insert(taggedKey(base >> shift, asid),
                                      PwcEntry{555, true});
                EXPECT_EQ(stateBytes(pwc), refBytes());
            }
        }
    }
}

TEST(RangeFlushWrap, TlbClampsToTopOfAddressSpace)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    const Addr top = (Addr{1} << 47) - kPageBytes;
    tlb.insert(0x1000, 1, TlbEntry{.pfn = 1, .asid = 1});
    tlb.insert(0x3000, 1, TlbEntry{.pfn = 3, .asid = 1});
    tlb.insert(top, 1, TlbEntry{.pfn = 4, .asid = 1});
    tlb.insert(top, 2, TlbEntry{.pfn = 5, .asid = 2});
    // base + len runs past 2^64: the range is [0x2000, top of space].
    tlb.flushRange(0x2000, ~Addr{0}, 1);
    EXPECT_TRUE(tlb.contains(0x1000, 1));
    EXPECT_FALSE(tlb.contains(0x3000, 1));
    EXPECT_FALSE(tlb.contains(top, 1));
    EXPECT_TRUE(tlb.contains(top, 2));
}

TEST(RangeFlushWrap, PwcClampsToTopOfAddressSpace)
{
    stats::StatGroup g("g");
    PageWalkCache pwc(&g, 32, 4, true);
    const Addr top = (Addr{1} << 47) - kPageBytes;
    pwc.fill(0x1000, 1, 3, 1, false);
    pwc.fill(top, 1, 3, 2, false);
    pwc.fill(top, 2, 3, 3, false);
    pwc.flushRange(kLargePageBytes, ~Addr{0} - 5, 1);
    EXPECT_EQ(pwc.probe(0x1000, 1).startDepth, 3u);
    EXPECT_EQ(pwc.probe(top, 1).startDepth, 0u);
    EXPECT_EQ(pwc.probe(top, 2).startDepth, 3u);
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
