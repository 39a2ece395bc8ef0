/**
 * @file
 * Unit tests for base utilities: address math, RNG, samplers, stats.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "base/bitfield.hh"
#include "base/debug.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace ap
{

/** Test-only view of ZipfSampler's guide table and exact attempt. */
struct ZipfSamplerTestPeer
{
    static const std::vector<std::uint32_t> &
    guide(const ZipfSampler &z)
    {
        return z.guide_;
    }

    static std::uint64_t
    rankOf(const ZipfSampler &z, std::uint64_t r)
    {
        return z.rankOf(r);
    }

    static constexpr unsigned kGuideShift = ZipfSampler::kGuideShift;
};

namespace
{

TEST(Bitfield, BitsExtractsInclusiveRange)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffu);
    EXPECT_EQ(bits(0xff00, 7, 0), 0x00u);
    EXPECT_EQ(bits(~std::uint64_t{0}, 63, 0), ~std::uint64_t{0});
    EXPECT_EQ(bits(0b1010, 3, 1), 0b101u);
}

TEST(Bitfield, PtIndexMatchesX86Layout)
{
    // VA bit layout: [47:39]=root(L4) [38:30]=L3 [29:21]=L2 [20:12]=L1.
    Addr va = (Addr{1} << 39) * 3 + (Addr{1} << 30) * 5 +
              (Addr{1} << 21) * 7 + (Addr{1} << 12) * 11 + 0x123;
    EXPECT_EQ(ptIndex(va, 0), 3u);
    EXPECT_EQ(ptIndex(va, 1), 5u);
    EXPECT_EQ(ptIndex(va, 2), 7u);
    EXPECT_EQ(ptIndex(va, 3), 11u);
}

TEST(Bitfield, PtIndexIsNineBitsWide)
{
    Addr va = ~Addr{0};
    for (unsigned d = 0; d < kPtLevels; ++d)
        EXPECT_EQ(ptIndex(va, d), kPtEntries - 1);
}

TEST(Bitfield, SpanAtDepth)
{
    EXPECT_EQ(spanAtDepth(3), kPageBytes);
    EXPECT_EQ(spanAtDepth(2), kLargePageBytes);
    EXPECT_EQ(spanAtDepth(1), Addr{1} << 30);
    EXPECT_EQ(spanAtDepth(0), Addr{1} << 39);
}

TEST(Bitfield, RegionBaseTruncates)
{
    Addr va = 0x0000'7f12'3456'7abc;
    EXPECT_EQ(regionBase(va, 3), pageBase(va));
    EXPECT_EQ(regionBase(va, 2) % kLargePageBytes, 0u);
    EXPECT_EQ(regionBase(va, 0) % (Addr{1} << 39), 0u);
    EXPECT_LE(regionBase(va, 0), va);
}

TEST(Bitfield, FrameConversionRoundTrips)
{
    Addr a = 0xdeadb000;
    EXPECT_EQ(frameAddr(frameOf(a)), a);
    EXPECT_EQ(pageOffset(0xdeadbeef), 0xeefu);
}

TEST(Types, LeafDepthPerPageSize)
{
    EXPECT_EQ(leafDepth(PageSize::Size4K), 3u);
    EXPECT_EQ(leafDepth(PageSize::Size2M), 2u);
    // Only the leaf and the 2 MB depth end a walk; a depth's granule
    // is the one whose leafDepth it is.
    for (bool ps : {false, true}) {
        EXPECT_FALSE(endsWalk(0, ps));
        EXPECT_FALSE(endsWalk(1, ps));
        EXPECT_TRUE(endsWalk(3, ps));
    }
    EXPECT_FALSE(endsWalk(2, false));
    EXPECT_TRUE(endsWalk(2, true));
    EXPECT_EQ(sizeAtDepth(3), PageSize::Size4K);
    EXPECT_EQ(sizeAtDepth(2), PageSize::Size2M);
}

TEST(Types, PageBytes)
{
    EXPECT_EQ(pageBytes(PageSize::Size4K), 4096u);
    EXPECT_EQ(pageBytes(PageSize::Size2M), 2u * 1024 * 1024);
}

TEST(Types, PaperLevelNames)
{
    EXPECT_EQ(paperLevelName(0), "L4");
    EXPECT_EQ(paperLevelName(3), "L1");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(13), 13u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.nextRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextRangeFullSpanIsRawDraw)
{
    // hi - lo + 1 wraps to 0 here; the full range is one raw draw.
    Rng a(13), b(13);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextRange(0, ~std::uint64_t{0}), b.next());
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / double(n), 0.3, 0.02);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(3);
    ZipfSampler z(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 1000u);
}

TEST(Zipf, SingleItem)
{
    Rng rng(3);
    ZipfSampler z(1, 0.99);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(5);
    ZipfSampler z(10000, 0.99);
    std::uint64_t low = 0, total = 50000;
    for (std::uint64_t i = 0; i < total; ++i)
        low += (z.sample(rng) < 100);
    // With theta=0.99 the first 1% of items should draw far more than
    // 1% of the probability mass.
    EXPECT_GT(low, total / 4);
}

TEST(Zipf, NearUniformWhenThetaSmall)
{
    Rng rng(5);
    ZipfSampler z(100, 0.05);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[z.sample(rng)]++;
    // Rank 0 should not dominate.
    EXPECT_LT(counts[0], 50000 / 20);
}

struct ZipfCase
{
    std::uint64_t n;
    double theta;
};

/** Each (n, theta) the workloads build, plus edge shapes. */
std::vector<ZipfCase>
guideCases()
{
    std::vector<ZipfCase> cases;
    // ZipfRegion hot, code and page-picker regions: 512 KiB, 1 MiB and
    // 2 MiB of 4 KiB pages.
    for (std::uint64_t n : {128u, 256u, 512u}) {
        for (double theta : {0.8, 0.9, 0.99, 1.3})
            cases.push_back({n, theta});
    }
    // memcached key slab (224 MiB / 4), gcc slot and dedup chunk pickers.
    cases.push_back({14336, 0.99});
    cases.push_back({3072, 0.99});
    cases.push_back({2048, 0.99});
    // Edge shapes.
    for (std::uint64_t n : {2u, 3u})
        cases.push_back({n, 0.99});
    cases.push_back({256, 1.0});
    cases.push_back({256, 0.5});
    cases.push_back({std::uint64_t{1} << 20, 0.99});
    return cases;
}

/**
 * Every guide-table cell that holds a rank must hold the rank the exact
 * rejection-inversion attempt returns for every draw in the cell: the
 * first and last 4096 draws (where an edge error would show) and a
 * random sample of the interior.
 */
class GuideTableMatchesExactInversion
    : public ::testing::TestWithParam<ZipfCase>
{
};

TEST_P(GuideTableMatchesExactInversion, EveryResolvedCell)
{
    using Peer = ZipfSamplerTestPeer;
    const ZipfCase c = GetParam();
    const std::uint64_t width = std::uint64_t{1} << Peer::kGuideShift;
    ZipfSampler z(c.n, c.theta);
    const std::vector<std::uint32_t> &guide = Peer::guide(z);
    ASSERT_EQ(guide.size() * width, std::uint64_t{1} << 53);
    Rng pick(20160618);
    std::uint64_t resolved = 0, mismatches = 0;
    for (std::uint64_t cell = 0; cell < guide.size(); ++cell) {
        if (guide[cell] == 0)
            continue;
        ++resolved;
        ASSERT_LE(guide[cell], c.n);
        const std::uint64_t first = cell * width;
        const std::uint64_t want = guide[cell] - 1;
        auto check = [&](std::uint64_t r) {
            mismatches += Peer::rankOf(z, r) != want;
        };
        for (std::uint64_t i = 0; i < 4096; ++i) {
            check(first + i);
            check(first + width - 1 - i);
        }
        for (int i = 0; i < 1024; ++i)
            check(first + pick.nextBelow(width));
    }
    EXPECT_EQ(mismatches, 0u);
    // The table must pay its way on the small regions the generators
    // sample most.
    if (c.n <= 512 && c.n > 3) {
        EXPECT_GT(resolved, guide.size() / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zipf, GuideTableMatchesExactInversion, ::testing::ValuesIn(guideCases()),
    [](const auto &info) {
        // theta in hundredths: 0.99 -> t099.
        return "n" + std::to_string(info.param.n) + "_t" +
               std::to_string(
                   static_cast<int>(info.param.theta * 100 + 0.5));
    });

TEST(Zipf, SingleItemKeepsNoGuideTable)
{
    // n == 1 never draws, so it keeps no table.
    EXPECT_TRUE(ZipfSamplerTestPeer::guide(ZipfSampler(1, 0.99)).empty());
}

/**
 * The sample stream (and the RNG draws it consumes) is pinned: hashes
 * of the first 100k samples, plus the generator's next raw draw, for
 * fixed seeds. The constants predate the guide table.
 */
TEST(Zipf, StreamIsPinned)
{
    struct Case
    {
        std::uint64_t n;
        double theta;
        std::uint64_t seed;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {256, 0.8, 42, 0x155c017e39e699e9ULL},
        {512, 1.3, 7, 0x8ee25d210c19dffcULL},
        {128, 0.99, 20160618, 0x139970640105fd8dULL},
        {std::uint64_t{1} << 20, 0.99, 3, 0x2af793c89804e0f8ULL},
        {3, 0.5, 1, 0x7f3f89b9dee4bc94ULL},
        {10000, 1.0, 5, 0x153bf4c9ce58705dULL},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        ZipfSampler z(c.n, c.theta);
        std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
        for (int i = 0; i < 100000; ++i) {
            h ^= z.sample(rng);
            h *= 0x100000001b3ULL;
        }
        h ^= rng.next();
        h *= 0x100000001b3ULL;
        EXPECT_EQ(h, c.hash) << "n " << c.n << " theta " << c.theta;
    }
}

TEST(WeightedPicker, RespectsWeights)
{
    Rng rng(17);
    WeightedPicker p({1.0, 0.0, 3.0});
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 40000; ++i)
        counts[p.pick(rng)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[2] / double(counts[0]), 3.0, 0.3);
}

TEST(Stats, ScalarAccumulates)
{
    stats::StatGroup g("g");
    stats::Scalar s(&g, "s", "a counter");
    ++s;
    s += 4;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionMoments)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "walk refs", 0, 30, 1);
    d.sample(4);
    d.sample(24);
    d.sample(4);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_NEAR(d.mean(), 32.0 / 3, 1e-9);
    EXPECT_EQ(d.minSeen(), 4u);
    EXPECT_EQ(d.maxSeen(), 24u);
    EXPECT_EQ(d.buckets()[4], 2u);
    EXPECT_EQ(d.buckets()[24], 1u);
}

TEST(Stats, DistributionOverflowUnderflow)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 10, 20, 5);
    d.sample(5);
    d.sample(25);
    d.sample(15);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::StatGroup g("g");
    stats::Scalar a(&g, "a", "");
    stats::Scalar b(&g, "b", "");
    stats::Formula f(&g, "ratio", "a per b", [&] {
        return b.value() ? a.value() / b.value() : 0.0;
    });
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
    a += 6;
    b += 3;
    EXPECT_DOUBLE_EQ(f.value(), 2.0);
}

TEST(Stats, GroupDumpContainsHierarchy)
{
    stats::StatGroup root("machine");
    stats::StatGroup child("tlb", &root);
    stats::Scalar hits(&child, "hits", "TLB hits");
    hits += 7;
    std::ostringstream os;
    root.dump(os);
    EXPECT_NE(os.str().find("machine.tlb.hits"), std::string::npos);
    EXPECT_NE(os.str().find("7"), std::string::npos);
}

TEST(Stats, ResetRecurses)
{
    stats::StatGroup root("r");
    stats::StatGroup child("c", &root);
    stats::Scalar s(&child, "s", "");
    s += 3;
    root.resetStats();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, FindStat)
{
    stats::StatGroup g("g");
    stats::Scalar s(&g, "present", "");
    EXPECT_NE(g.findStat("present"), nullptr);
    EXPECT_EQ(g.findStat("absent"), nullptr);
}

TEST(Stats, DestroyedStatDeregisters)
{
    // Regression: ~StatBase used to leave its pointer in the group's
    // registry, so dumping after a stat died dereferenced freed memory.
    stats::StatGroup g("g");
    stats::Scalar keep(&g, "keep", "survives");
    keep += 2;
    {
        stats::Scalar doomed(&g, "doomed", "dies first");
        doomed += 9;
        EXPECT_NE(g.findStat("doomed"), nullptr);
    }
    EXPECT_EQ(g.findStat("doomed"), nullptr);
    EXPECT_NE(g.findStat("keep"), nullptr);

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str().find("doomed"), std::string::npos);
    EXPECT_NE(os.str().find("keep"), std::string::npos);

    g.resetStats();
    EXPECT_DOUBLE_EQ(keep.value(), 0.0);

    std::ostringstream js;
    g.dumpJson(js);
    EXPECT_EQ(js.str().find("doomed"), std::string::npos);
}

TEST(Stats, GroupDestroyedBeforeStat)
{
    // The reverse order: the group dies first, the stat's destructor
    // must not chase the dead group's registry.
    auto g = std::make_unique<stats::StatGroup>("g");
    stats::Scalar s(g.get(), "s", "");
    s += 1;
    g.reset();
    EXPECT_DOUBLE_EQ(s.value(), 1.0);
    // ~s runs after this with no group to deregister from.
}

TEST(Stats, DistributionBoundaryBuckets)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 10, 29, 10);
    d.sample(10); // first bucket's low edge
    d.sample(19); // first bucket's high edge
    d.sample(20); // second bucket's low edge
    d.sample(29); // max itself stays in range
    d.sample(9);  // one below min -> underflow
    d.sample(30); // one above max -> overflow
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.count(), 6u);
    EXPECT_EQ(d.minSeen(), 9u);
    EXPECT_EQ(d.maxSeen(), 30u);
}

TEST(Stats, DistributionWeightedSamples)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 0, 100, 10);
    d.sample(10, 3);
    d.sample(40, 1);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 70.0);
    EXPECT_DOUBLE_EQ(d.mean(), 17.5);
}

TEST(Stats, DistributionResetRestoresExtremes)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 0, 100, 10);
    d.sample(5);
    d.sample(95);
    EXPECT_EQ(d.minSeen(), 5u);
    EXPECT_EQ(d.maxSeen(), 95u);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    // min/max trackers must rearm, not stay pinned at the old values.
    d.sample(50);
    EXPECT_EQ(d.minSeen(), 50u);
    EXPECT_EQ(d.maxSeen(), 50u);
}

TEST(Stats, DistributionSaveRestoreRoundTrip)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 0, 100, 10);
    d.sample(5);
    d.sample(42, 3);
    d.sample(120); // overflow

    Serializer s;
    d.saveValues(s);

    stats::StatGroup g2("g");
    stats::Distribution d2(&g2, "d", "x", 0, 100, 10);
    Deserializer in(s.data());
    d2.restoreValues(in);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(d2.count(), d.count());
    EXPECT_DOUBLE_EQ(d2.sum(), d.sum());
    EXPECT_EQ(d2.minSeen(), 5u);
    EXPECT_EQ(d2.maxSeen(), 120u);
    EXPECT_EQ(d2.overflow(), 1u);
    EXPECT_EQ(d2.buckets(), d.buckets());
}

TEST(Stats, DistributionResetAfterRestoreRearmsExtremes)
{
    // The measurement-boundary contract for restored machines: a
    // reset after restoring serialized values must rearm the min/max
    // trackers exactly as a cold run's reset does, not leave them
    // pinned at the restored extremes.
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "x", 0, 100, 10);
    d.sample(5);
    d.sample(95);
    Serializer s;
    d.saveValues(s);

    stats::StatGroup g2("g");
    stats::Distribution d2(&g2, "d", "x", 0, 100, 10);
    Deserializer in(s.data());
    d2.restoreValues(in);
    ASSERT_TRUE(in.ok());

    d2.reset();
    EXPECT_EQ(d2.count(), 0u);
    d2.sample(50);
    EXPECT_EQ(d2.minSeen(), 50u);
    EXPECT_EQ(d2.maxSeen(), 50u);
}

TEST(Stats, TreeSaveRestoreRoundTrip)
{
    stats::StatGroup root("machine");
    stats::StatGroup child("tlb", &root);
    stats::Scalar hits(&child, "hits", "");
    stats::Distribution refs(&root, "refs", "", 0, 30, 1);
    stats::Formula ratio(&root, "ratio", "", [&] { return 2.0; });
    hits += 7;
    refs.sample(4, 2);

    Serializer s;
    root.saveStatsTree(s);

    stats::StatGroup root2("machine");
    stats::StatGroup child2("tlb", &root2);
    stats::Scalar hits2(&child2, "hits", "");
    stats::Distribution refs2(&root2, "refs", "", 0, 30, 1);
    stats::Formula ratio2(&root2, "ratio", "", [&] { return 2.0; });

    Deserializer in(s.data());
    root2.restoreStatsTree(in);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);
    EXPECT_DOUBLE_EQ(hits2.value(), 7.0);
    EXPECT_EQ(refs2.count(), 2u);

    // Restored trees re-serialize byte-identically.
    Serializer s2;
    root2.saveStatsTree(s2);
    EXPECT_EQ(s.data(), s2.data());
}

TEST(Stats, TreeRestoreRejectsMismatchedShape)
{
    stats::StatGroup root("machine");
    stats::Scalar a(&root, "a", "");
    a += 1;
    Serializer s;
    root.saveStatsTree(s);

    // Different stat name under the same group name.
    stats::StatGroup other("machine");
    stats::Scalar b(&other, "b", "");
    Deserializer in(s.data());
    other.restoreStatsTree(in);
    EXPECT_FALSE(in.ok());

    // Different group name.
    stats::StatGroup renamed("engine");
    stats::Scalar a2(&renamed, "a", "");
    Deserializer in2(s.data());
    renamed.restoreStatsTree(in2);
    EXPECT_FALSE(in2.ok());

    // Truncated stream.
    stats::StatGroup again("machine");
    stats::Scalar a3(&again, "a", "");
    Deserializer in3(s.data().data(), s.size() / 2);
    again.restoreStatsTree(in3);
    EXPECT_FALSE(in3.ok());
}

TEST(Serializer, PodVectorRoundTrip)
{
    const std::vector<std::uint64_t> v{1, 2, 3, 0xdeadbeef};
    Serializer s;
    s.putPodVector(v);
    std::vector<std::uint64_t> out{9};
    Deserializer in(s.data());
    in.getPodVector(out);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(Serializer, PodVectorLengthThatWrapsLatchesFailure)
{
    // n * sizeof(T) wraps to 0 (2^61 * 8) or to a small size: a
    // multiply-based bounds check would pass both and resize() would
    // throw std::length_error instead of latching failure.
    struct Wide
    {
        std::uint64_t a, b, c;
    };
    for (std::uint64_t n :
         {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
          ~std::uint64_t{0}}) {
        SCOPED_TRACE(n);
        Serializer s;
        s.putU64(n);
        s.putU64(7); // a little payload, far short of n elements
        std::vector<std::uint64_t> words{1, 2};
        Deserializer in(s.data());
        EXPECT_NO_THROW(in.getPodVector(words));
        EXPECT_FALSE(in.ok());
        EXPECT_TRUE(words.empty());
    }
    // (2^64 / 24) + 1 elements of 24 bytes wraps to 8 bytes.
    Serializer s;
    s.putU64(~std::uint64_t{0} / sizeof(Wide) + 1);
    s.putU64(7);
    std::vector<Wide> wide(3);
    Deserializer in(s.data());
    EXPECT_NO_THROW(in.getPodVector(wide));
    EXPECT_FALSE(in.ok());
    EXPECT_TRUE(wide.empty());
}

TEST(Serializer, TruncatedPodVectorLatchesFailure)
{
    const std::vector<std::uint64_t> v{1, 2, 3, 4};
    Serializer s;
    s.putPodVector(v);
    const std::vector<std::uint8_t> &bytes = s.data();
    // Cut inside the payload, at an element boundary, and inside the
    // length prefix itself.
    for (std::size_t keep : {bytes.size() - 1, bytes.size() - 8,
                             std::size_t{8}, std::size_t{3}}) {
        SCOPED_TRACE(keep);
        std::vector<std::uint64_t> out{5};
        Deserializer in(bytes.data(), keep);
        in.getPodVector(out);
        EXPECT_FALSE(in.ok());
        EXPECT_TRUE(out.empty());
    }
    // A stream that already failed does not read a well-formed vector.
    std::vector<std::uint64_t> out;
    Deserializer whole(bytes);
    whole.fail();
    whole.getPodVector(out);
    EXPECT_FALSE(whole.ok());
    EXPECT_TRUE(out.empty());
}

TEST(Stats, FormulaNullFunction)
{
    stats::StatGroup g("g");
    stats::Formula f(&g, "f", "no fn", nullptr);
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
    std::ostringstream os;
    g.dump(os); // printing a null-fn formula must not crash
    std::ostringstream js;
    g.dumpJson(js);
}

TEST(Stats, DumpJsonShape)
{
    stats::StatGroup root("machine");
    stats::StatGroup child("tlb", &root);
    stats::Scalar hits(&child, "hits", "TLB \"hits\"");
    hits += 7;
    stats::Distribution d(&root, "refs", "walk refs", 0, 30, 1);
    d.sample(4, 2);
    std::ostringstream os;
    root.dumpJson(os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"schema\": \"ap-stats-v1\""), std::string::npos);
    EXPECT_NE(j.find("\"name\": \"machine\""), std::string::npos);
    EXPECT_NE(j.find("\"tlb\""), std::string::npos);
    EXPECT_NE(j.find("\"hits\""), std::string::npos);
    // The quote inside the description must be escaped.
    EXPECT_NE(j.find("TLB \\\"hits\\\""), std::string::npos);
    EXPECT_NE(j.find("\"type\": \"distribution\""), std::string::npos);
}

TEST(Debug, FlagsDefaultOff)
{
    EXPECT_FALSE(debug::enabled(debug::Flag::Walker));
}

TEST(Debug, SetAndClearFlag)
{
    debug::setFlag(debug::Flag::Tlb, true);
    EXPECT_TRUE(debug::enabled(debug::Flag::Tlb));
    debug::setFlag(debug::Flag::Tlb, false);
    EXPECT_FALSE(debug::enabled(debug::Flag::Tlb));
}

TEST(Debug, ParseFlagList)
{
    EXPECT_TRUE(debug::setFlagsFromString("walker,policy"));
    EXPECT_TRUE(debug::enabled(debug::Flag::Walker));
    EXPECT_TRUE(debug::enabled(debug::Flag::Policy));
    EXPECT_FALSE(debug::enabled(debug::Flag::Vmm));
    debug::setFlag(debug::Flag::Walker, false);
    debug::setFlag(debug::Flag::Policy, false);
}

TEST(Debug, ParseAllAndUnknown)
{
    EXPECT_FALSE(debug::setFlagsFromString("walker,bogus"));
    EXPECT_TRUE(debug::enabled(debug::Flag::Walker));
    EXPECT_TRUE(debug::setFlagsFromString("all"));
    for (std::size_t i = 0; i < debug::kNumFlags; ++i) {
        auto f = static_cast<debug::Flag>(i);
        EXPECT_TRUE(debug::enabled(f)) << debug::flagName(f);
        debug::setFlag(f, false);
    }
}

TEST(Debug, FlagNamesRoundTrip)
{
    for (std::size_t i = 0; i < debug::kNumFlags; ++i) {
        auto f = static_cast<debug::Flag>(i);
        EXPECT_TRUE(debug::setFlagsFromString(debug::flagName(f)));
        EXPECT_TRUE(debug::enabled(f));
        debug::setFlag(f, false);
    }
}

TEST(Logging, PanicThrows)
{
    EXPECT_THROW(ap_panic("boom ", 42), std::logic_error);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(ap_assert(1 + 1 == 2, "math"));
    EXPECT_THROW(ap_assert(false, "nope"), std::logic_error);
}

} // namespace
} // namespace ap
