/**
 * @file
 * Translation-backend tests: the traits table, the per-mode backends,
 * and the range/segment backend — hit accounting, invalidation on
 * unmap churn, spill pressure under a tiny register file, snapshot
 * round-trips, multi-vCPU runs, and the oracle's stale-segment
 * detection.
 */

#include <gtest/gtest.h>

#include "core/range_backend.hh"
#include "sim/machine.hh"
#include "sim/oracle.hh"
#include "sim/snapshot.hh"
#include "walker/backend.hh"
#include "workloads/workload.hh"

namespace ap
{
namespace
{

SimConfig
rangeConfig(PageSize ps = PageSize::Size4K)
{
    SimConfig cfg;
    cfg.mode = VirtMode::Range;
    cfg.pageSize = ps;
    cfg.guestOs.pageSize = ps;
    cfg.hostMemFrames = 1 << 16;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 15;
    cfg.verifyTranslations = true;
    return cfg;
}

WorkloadParams
smallParams(std::uint64_t ops = 30'000)
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = ops;
    p.seed = 7;
    return p;
}

TEST(BackendTraitsTest, TableMatchesModeStructure)
{
    const BackendTraits &native = backendTraits(VirtMode::Native);
    EXPECT_FALSE(native.usesVmm);
    EXPECT_FALSE(native.usesShadowMgr);

    const BackendTraits &nested = backendTraits(VirtMode::Nested);
    EXPECT_TRUE(nested.usesVmm);
    EXPECT_FALSE(nested.usesShadowMgr);
    EXPECT_FALSE(nested.usesSegments);

    for (VirtMode m :
         {VirtMode::Shadow, VirtMode::Agile, VirtMode::Shsp}) {
        const BackendTraits &t = backendTraits(m);
        EXPECT_TRUE(t.usesVmm) << virtModeName(m);
        EXPECT_TRUE(t.usesShadowMgr) << virtModeName(m);
        EXPECT_FALSE(t.usesSegments) << virtModeName(m);
    }
    EXPECT_TRUE(backendTraits(VirtMode::Agile).usesAgilePolicy);
    EXPECT_FALSE(backendTraits(VirtMode::Shsp).usesAgilePolicy);
    EXPECT_TRUE(backendTraits(VirtMode::Shsp).usesShsp);

    const BackendTraits &range = backendTraits(VirtMode::Range);
    EXPECT_TRUE(range.usesVmm);
    EXPECT_FALSE(range.usesShadowMgr);
    EXPECT_TRUE(range.usesSegments);

    // Each traits row names its own mode.
    for (VirtMode m : {VirtMode::Native, VirtMode::Nested,
                       VirtMode::Shadow, VirtMode::Agile, VirtMode::Shsp,
                       VirtMode::Range}) {
        EXPECT_EQ(backendTraits(m).mode, m) << virtModeName(m);
    }
}

TEST(BuiltinBackendTest, ModesUseStatelessSingletons)
{
    for (VirtMode m : {VirtMode::Native, VirtMode::Nested,
                       VirtMode::Shadow, VirtMode::Agile,
                       VirtMode::Shsp}) {
        EXPECT_EQ(builtinBackend(m).mode(), m) << virtModeName(m);
        // Singleton per mode: two lookups are the same object.
        EXPECT_EQ(&builtinBackend(m), &builtinBackend(m));
        // A machine in this mode dispatches through the singleton and
        // owns no backend of its own.
        SimConfig cfg = rangeConfig();
        cfg.mode = m;
        Machine machine(cfg);
        EXPECT_EQ(&machine.backend(), &builtinBackend(m))
            << virtModeName(m);
        EXPECT_EQ(machine.rangeBackend(), nullptr) << virtModeName(m);
    }
}

TEST(RangeBackendTest, EachMachineBuildsPerVcpuFiles)
{
    SimConfig cfg = rangeConfig();
    cfg.numVcpus = 3;
    cfg.range.segmentRegs = 4;
    Machine m(cfg);
    RangeBackend *rb = m.rangeBackend();
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(&m.backend(), rb);
    EXPECT_EQ(rb->mode(), VirtMode::Range);
    EXPECT_EQ(rb->numVcpus(), 3u);
    EXPECT_EQ(rb->config().segmentRegs, 4u);
    // The range backend listens to the coherence domain.
    EXPECT_NE(rb->coherenceListener(), nullptr);
    // Segment state is per machine, never shared.
    Machine other(cfg);
    EXPECT_NE(other.rangeBackend(), rb);
}

TEST(ConfigTest, VirtModeNamesRoundTripForAllEnumerators)
{
    // Every name virtModeName() can emit must parse back to the same
    // enumerator — including Native ("Native") and Shsp ("SHSP"),
    // which parseVirtMode matches case-insensitively.
    for (VirtMode m : {VirtMode::Native, VirtMode::Nested,
                       VirtMode::Shadow, VirtMode::Agile, VirtMode::Shsp,
                       VirtMode::Range}) {
        VirtMode parsed = VirtMode::Agile == m ? VirtMode::Native
                                               : VirtMode::Agile;
        ASSERT_TRUE(parseVirtMode(virtModeName(m), parsed))
            << virtModeName(m);
        EXPECT_EQ(parsed, m) << virtModeName(m);
    }
}

TEST(ConfigTest, SegmentOptionsParse)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.applyOption("mode=range"));
    EXPECT_EQ(cfg.mode, VirtMode::Range);
    EXPECT_TRUE(cfg.applyOption("segment_regs=8"));
    EXPECT_EQ(cfg.range.segmentRegs, 8u);
    EXPECT_TRUE(cfg.applyOption("segment_min_pages=4"));
    EXPECT_EQ(cfg.range.segmentMinPages, 4u);
    EXPECT_TRUE(cfg.applyOption("segment_max_pages=256"));
    EXPECT_EQ(cfg.range.segmentMaxPages, 256u);
    EXPECT_TRUE(cfg.applyOption("segment_fill_cycles=100"));
    EXPECT_EQ(cfg.range.segmentFillCycles, 100u);
    EXPECT_FALSE(cfg.applyOption("segment_regs=0"));
    EXPECT_FALSE(cfg.applyOption("segment_regs=2048"));
    EXPECT_FALSE(cfg.applyOption("segment_min_pages=0"));
}

TEST(RangeBackendTest, SegmentHitsAccumulateOnContiguousWorkload)
{
    Machine m(rangeConfig());
    auto w = makeWorkload("astar", smallParams());
    RunResult r = m.run(*w);
    EXPECT_GT(r.walks, 0u);
    EXPECT_GT(r.segmentHits, 0u);
    // Hits bypass the page tables entirely, so the mean walk cost must
    // sit below a pure nested walk's.
    EXPECT_LT(r.avgWalkRefs, 24.0);
}

TEST(RangeBackendTest, UnmapChurnInvalidatesSegments)
{
    Machine m(rangeConfig());
    // dedup's mmap/munmap churn forces segment drops through the
    // coherence broadcast.
    auto w = makeWorkload("dedup", smallParams(40'000));
    RunResult r = m.run(*w);
    EXPECT_GT(r.segmentHits, 0u);
    EXPECT_GT(r.segmentInvalidations, 0u);
}

TEST(RangeBackendTest, TinyRegisterFileSpills)
{
    SimConfig cfg = rangeConfig();
    cfg.range.segmentRegs = 2;
    Machine m(cfg);
    auto w = makeWorkload("mcf", smallParams());
    RunResult r = m.run(*w);
    EXPECT_GT(r.segmentSpills, 0u);
}

TEST(RangeBackendTest, FourVcpusRunVerified)
{
    SimConfig cfg = rangeConfig();
    cfg.numVcpus = 4;
    Machine m(cfg);
    auto w = makeWorkload("memcached", smallParams(40'000));
    RunResult r = m.run(*w);
    EXPECT_GT(r.walks, 0u);
    EXPECT_GT(r.segmentHits, 0u);
}

TEST(RangeBackendTest, SnapshotRoundTripIsBitIdentical)
{
    SimConfig cfg = rangeConfig();
    cfg.verifyTranslations = false;
    auto w = makeWorkload("astar", smallParams());
    Machine warm(cfg);
    warm.runWarmup(*w);
    SnapshotPtr snap = captureSnapshot(warm);

    Machine restored(cfg);
    ASSERT_TRUE(restoreSnapshot(*snap, restored));
    SnapshotPtr again = captureSnapshot(restored);
    EXPECT_EQ(snap->bytes, again->bytes);
}

TEST(RangeBackendTest, DigestPinsSegmentGeometry)
{
    SimConfig a = rangeConfig();
    SimConfig b = rangeConfig();
    EXPECT_EQ(simConfigDigest(a), simConfigDigest(b));
    b.range.segmentRegs = 32;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = rangeConfig();
    b.range.segmentFillCycles = 1;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
}

TEST(RangeFlushWrap, RangeBackendClampsToTopOfAddressSpace)
{
    stats::StatGroup root("t");
    RangeBackend rb(&root, 1, RangeBackendConfig{});
    auto live = [&] {
        unsigned n = 0;
        rb.forEachSegment(0, [&](const RangeBackend::SegmentReg &) { ++n; });
        return n;
    };
    // base + len runs past 2^64: the range is [1 MB, top of space].
    const Addr base = Addr{1} << 20, len = ~Addr{0};
    rb.plantSegment(0, {.asid = 1, .vaBase = Addr{0x7f} << 40, .pages = 16});
    rb.onFlushRange(base, len, 2);
    EXPECT_EQ(live(), 1u); // another ASID's flush
    rb.onFlushRange(base, len, 1);
    EXPECT_EQ(live(), 0u);
    rb.plantSegment(0, {.asid = 1, .vaBase = 0x1000, .pages = 4});
    rb.onFlushRange(base, len, 1);
    EXPECT_EQ(live(), 1u); // wholly below the range
}

TEST(RangeOracleTest, CleanTracePassesAllFourMachines)
{
    OracleOptions opts;
    opts.seed = 5;
    opts.operations = 800;
    opts.sweepInterval = 64;
    OracleReport rep = runDifferential(makeRandomTrace(opts), opts);
    EXPECT_TRUE(rep.passed) << (rep.violations.empty()
                                    ? ""
                                    : rep.violations.front().detail);
}

TEST(RangeOracleTest, PlantedStaleSegmentIsCaught)
{
    OracleOptions opts;
    opts.seed = 5;
    opts.operations = 800;
    opts.sweepInterval = 64;
    opts.injectStaleSegmentAtAccess = 10;
    OracleReport rep = runDifferential(makeRandomTrace(opts), opts);
    ASSERT_FALSE(rep.passed);
    EXPECT_EQ(rep.violations.front().invariant, "stale-segment");
}

TEST(RangeOracleTest, PlantedStaleSegmentIsCaughtMultiVcpu)
{
    OracleOptions opts;
    opts.seed = 9;
    opts.operations = 800;
    opts.sweepInterval = 64;
    opts.numVcpus = 4;
    opts.injectStaleSegmentAtAccess = 10;
    OracleReport rep = runDifferential(makeRandomTrace(opts), opts);
    ASSERT_FALSE(rep.passed);
    EXPECT_EQ(rep.violations.front().invariant, "stale-segment");
}

} // namespace
} // namespace ap
