/**
 * @file
 * Walk-trace tests: ring-buffer semantics, file roundtrip, and the
 * acceptance criterion that the offline summarizer reproduces the
 * in-simulator Table VI coverage fractions bit-identically on real
 * workloads at 4K and 2M pages.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "trace/walk_trace.hh"
#include "vmm/vmm.hh"

namespace ap
{
namespace
{

WalkTraceRecord
makeRecord(Addr va, unsigned switch_depth, unsigned refs)
{
    WalkTraceRecord r;
    r.va = va;
    r.mode = static_cast<std::uint8_t>(VirtMode::Agile);
    r.switchDepth = static_cast<std::uint8_t>(switch_depth);
    r.refs = static_cast<std::uint8_t>(refs);
    return r;
}

TEST(WalkTraceBuffer, AppendsUntilCapacity)
{
    WalkTraceBuffer buf(4);
    for (Addr i = 0; i < 3; ++i)
        buf.append(makeRecord(i, kPtLevels, 4));
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf.appended(), 3u);
    EXPECT_EQ(buf.dropped(), 0u);
    auto recs = buf.snapshot();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].va, 0u);
    EXPECT_EQ(recs[2].va, 2u);
}

TEST(WalkTraceBuffer, WrapsAndCountsDropped)
{
    WalkTraceBuffer buf(4);
    for (Addr i = 0; i < 10; ++i)
        buf.append(makeRecord(i, kPtLevels, 4));
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.appended(), 10u);
    EXPECT_EQ(buf.dropped(), 6u);
    // Oldest-first snapshot holds the newest four records.
    auto recs = buf.snapshot();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].va, 6u);
    EXPECT_EQ(recs[3].va, 9u);
}

TEST(WalkTraceBuffer, ClearResetsCounters)
{
    WalkTraceBuffer buf(2);
    buf.append(makeRecord(1, kPtLevels, 4));
    buf.append(makeRecord(2, kPtLevels, 4));
    buf.append(makeRecord(3, kPtLevels, 4));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.appended(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    buf.append(makeRecord(4, kPtLevels, 4));
    auto recs = buf.snapshot();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].va, 4u);
}

TEST(WalkTrace, CoverageClassMirrorsWalker)
{
    WalkTraceRecord r = makeRecord(0, kPtLevels, 4);
    EXPECT_EQ(coverageClass(r), 0u); // full shadow
    r.switchDepth = 3;
    EXPECT_EQ(coverageClass(r), 1u); // one nested level
    r.switchDepth = 0;
    EXPECT_EQ(coverageClass(r), 4u); // all levels nested
    r.flags |= WalkTraceRecord::kFlagFullNested;
    EXPECT_EQ(coverageClass(r), 5u); // nested incl. gptr translation
}

TEST(WalkTrace, FileRoundTrip)
{
    WalkTraceBuffer buf(3);
    for (Addr i = 0; i < 5; ++i) {
        WalkTraceRecord r = makeRecord(0x1000 * i, i % (kPtLevels + 1),
                                       4 + 4 * unsigned(i));
        r.asid = static_cast<ProcId>(i + 1);
        r.flags = static_cast<std::uint8_t>(i);
        r.coldRefs = 1;
        r.refsByTable[1] = 2;
        r.refsByTable[3] = static_cast<std::uint8_t>(i);
        r.pwcStartDepth = 2;
        r.ntlbHits = 3;
        r.faults = static_cast<std::uint8_t>(i % 2);
        r.trapMask = static_cast<std::uint16_t>(1u << (i % kNumTrapKinds));
        buf.append(r);
    }

    std::string path = testing::TempDir() + "/roundtrip.apwt";
    ASSERT_TRUE(writeWalkTraceFile(buf, path));

    std::vector<WalkTraceRecord> records;
    std::uint64_t dropped = 0;
    ASSERT_TRUE(readWalkTraceFile(path, records, dropped));
    EXPECT_EQ(dropped, 2u);

    auto expect = buf.snapshot();
    ASSERT_EQ(records.size(), expect.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].va, expect[i].va);
        EXPECT_EQ(records[i].asid, expect[i].asid);
        EXPECT_EQ(records[i].mode, expect[i].mode);
        EXPECT_EQ(records[i].flags, expect[i].flags);
        EXPECT_EQ(records[i].switchDepth, expect[i].switchDepth);
        EXPECT_EQ(records[i].refs, expect[i].refs);
        EXPECT_EQ(records[i].coldRefs, expect[i].coldRefs);
        for (std::size_t t = 0; t < kNumWalkTables; ++t)
            EXPECT_EQ(records[i].refsByTable[t], expect[i].refsByTable[t]);
        EXPECT_EQ(records[i].pwcStartDepth, expect[i].pwcStartDepth);
        EXPECT_EQ(records[i].ntlbHits, expect[i].ntlbHits);
        EXPECT_EQ(records[i].faults, expect[i].faults);
        EXPECT_EQ(records[i].trapMask, expect[i].trapMask);
    }
    std::remove(path.c_str());
}

TEST(WalkTrace, ReadRejectsGarbage)
{
    std::string path = testing::TempDir() + "/garbage.apwt";
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a walk trace";
    }
    std::vector<WalkTraceRecord> records;
    std::uint64_t dropped = 0;
    EXPECT_FALSE(readWalkTraceFile(path, records, dropped));
    EXPECT_FALSE(readWalkTraceFile(path + ".missing", records, dropped));
    {
        // A 32-byte header: magic, version 1, then 2^62 records
        // (and zero appended and dropped) that the file does not hold.
        std::ofstream os(path, std::ios::binary);
        const std::uint32_t version = 1;
        const std::uint64_t counts[3] = {std::uint64_t(1) << 62, 0, 0};
        os.write("APWT", 4);
        os.write(reinterpret_cast<const char *>(&version), sizeof(version));
        os.write(reinterpret_cast<const char *>(counts), sizeof(counts));
    }
    EXPECT_EQ(std::filesystem::file_size(path), 32u);
    EXPECT_FALSE(readWalkTraceFile(path, records, dropped));
    std::remove(path.c_str());
}

/**
 * Acceptance criterion: the summary a trace consumer reconstructs must
 * equal the simulator's own RunResult bit for bit — same coverage
 * fractions (same division over the same integers), same average
 * refs/walk — and the per-cause trap attribution must sum exactly to
 * the aggregate trap counter.
 */
void
checkTraceMatchesCounters(const std::string &workload, PageSize page)
{
    SCOPED_TRACE(workload + "/" + pageSizeName(page));
    WorkloadParams params = defaultParamsFor(workload);
    params.operations = 30000;
    SimConfig cfg = configFor(VirtMode::Agile, page, params);
    Machine machine(cfg);
    machine.enableWalkTrace(std::size_t{1} << 18);
    auto wl = makeWorkload(workload, params);
    ASSERT_NE(wl, nullptr);
    RunResult result = machine.run(*wl);

    const WalkTraceBuffer *trace = machine.walkTrace();
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->dropped(), 0u)
        << "ring too small for bit-identical comparison";

    WalkTraceSummary sum = summarizeWalkTrace(*trace);

    // One record per successful walk in the measured region.
    std::uint64_t successful = 0;
    for (std::uint64_t c : sum.coverageCounts)
        successful += c;
    EXPECT_EQ(sum.walks, successful);

    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(sum.coverage[i], result.coverage[i])
            << "coverage class " << i << " diverged";
    }
    EXPECT_EQ(sum.avgWalkRefs, result.avgWalkRefs);

    // Per-cause trap attribution: causes sum exactly to the aggregate.
    Vmm *vmm = machine.vmm();
    ASSERT_NE(vmm, nullptr);
    std::uint64_t by_cause = 0;
    double by_cause_stat = 0;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
        by_cause += vmm->trapCount(static_cast<TrapKind>(k));
        by_cause_stat += vmm->trapCountByCause[k]->value();
    }
    EXPECT_EQ(by_cause, vmm->trapCountTotal());
    EXPECT_DOUBLE_EQ(by_cause_stat, vmm->trapsTotal.value());

    std::uint64_t delta_by_kind = 0;
    for (std::uint64_t c : result.trapByKind)
        delta_by_kind += c;
    EXPECT_EQ(delta_by_kind, result.traps);
}

TEST(WalkTrace, SummaryMatchesCountersGcc4K)
{
    checkTraceMatchesCounters("gcc", PageSize::Size4K);
}

TEST(WalkTrace, SummaryMatchesCountersGcc2M)
{
    checkTraceMatchesCounters("gcc", PageSize::Size2M);
}

TEST(WalkTrace, SummaryMatchesCountersDedup4K)
{
    checkTraceMatchesCounters("dedup", PageSize::Size4K);
}

TEST(WalkTrace, SummaryMatchesCountersDedup2M)
{
    checkTraceMatchesCounters("dedup", PageSize::Size2M);
}

TEST(WalkTrace, TrapCyclesByCauseSumToAggregate)
{
    WorkloadParams params = defaultParamsFor("mcf");
    params.operations = 20000;
    SimConfig cfg = configFor(VirtMode::Shadow, PageSize::Size4K, params);
    Machine machine(cfg);
    auto wl = makeWorkload("mcf", params);
    ASSERT_NE(wl, nullptr);
    machine.run(*wl);

    Vmm *vmm = machine.vmm();
    ASSERT_NE(vmm, nullptr);
    EXPECT_GT(vmm->trapCountTotal(), 0u);
    double count = 0, cycles = 0;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
        count += vmm->trapCountByCause[k]->value();
        cycles += vmm->trapCyclesByCause[k]->value();
    }
    EXPECT_DOUBLE_EQ(count, vmm->trapsTotal.value());
    EXPECT_DOUBLE_EQ(cycles, vmm->trapCyclesStat.value());
    EXPECT_DOUBLE_EQ(cycles, double(vmm->trapCycles()));
}

TEST(WalkTrace, SummarizerTopShapesSorted)
{
    WalkTraceBuffer buf(64);
    for (int i = 0; i < 10; ++i)
        buf.append(makeRecord(0x1000 * i, kPtLevels, 4));
    for (int i = 0; i < 3; ++i) {
        WalkTraceRecord r = makeRecord(0x9000, 2, 12);
        r.refsByTable[1] = 4;
        buf.append(r);
    }
    WalkTraceSummary sum = summarizeWalkTrace(buf, 2);
    ASSERT_EQ(sum.topShapes.size(), 2u);
    EXPECT_EQ(sum.topShapes[0].count, 10u);
    EXPECT_EQ(sum.topShapes[1].count, 3u);
    EXPECT_GE(sum.topShapes[0].count, sum.topShapes[1].count);
    EXPECT_EQ(sum.coverageCounts[0], 10u);
    EXPECT_EQ(sum.coverageCounts[2], 3u);
    EXPECT_EQ(sum.refsTotal, 10u * 4 + 3u * 12);
}

} // namespace
} // namespace ap
