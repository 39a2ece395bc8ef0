/**
 * @file
 * Tests of the benchmark harness's own code: the percentile guard, the
 * result digest check, span self time, and that the harness's
 * instrumented copies reproduce the simulator's own entry points bit
 * for bit, with spans on or off.
 */

#include <gtest/gtest.h>

#include "benches.hh"
#include "cells.hh"
#include "harness.hh"
#include "sim/experiment.hh"

using namespace perfbench;

namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) // descending: order must not matter
        v.push_back(double(i));
    return v;
}

ap::RunResult
sampleRun()
{
    ap::RunResult r;
    r.workload = "mcf";
    r.mode = ap::VirtMode::Agile;
    r.instructions = 1000;
    r.idealCycles = 3000;
    r.walkCycles = 400;
    r.trapCycles = 120;
    r.tlbMisses = 17;
    r.walks = 16;
    r.avgWalkRefs = 2.5;
    r.coverage[0] = 0.75;
    r.trapByKind[0] = 3;
    return r;
}

SpanRecord
span(std::uint32_t id, std::uint32_t parent, const char *name,
     std::int64_t start, std::int64_t end)
{
    SpanRecord s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    return s;
}

} // namespace

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    double out = -1;
    std::string err;
    EXPECT_FALSE(percentile(ramp(99), 90, out, &err));
    EXPECT_EQ(out, -1);
    EXPECT_NE(err.find("need 10"), std::string::npos);
    EXPECT_FALSE(percentile(ramp(19), 50, out));
    EXPECT_FALSE(percentile({}, 50, out));
}

TEST(Percentile, NearestRankWithEnoughSamples)
{
    double out = 0;
    ASSERT_TRUE(percentile(ramp(100), 90, out));
    EXPECT_EQ(out, 90);
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    ASSERT_TRUE(percentile(ramp(20), 50, out));
    EXPECT_EQ(out, 10);
}

TEST(Digest, OneFieldChangeFailsTheCheck)
{
    const ap::RunResult base = sampleRun();
    const std::vector<std::uint64_t> expected = {runDigest(base)};
    EXPECT_EQ(digestMismatches({runDigest(base)}, expected), 0u);

    ap::RunResult r = base;
    r.tlbMisses += 1;
    EXPECT_EQ(digestMismatches({runDigest(r)}, expected), 1u);
    r = base;
    r.coverage[0] = 0.7500001;
    EXPECT_EQ(digestMismatches({runDigest(r)}, expected), 1u);
    r = base;
    r.trapByKind[0] += 1;
    EXPECT_EQ(digestMismatches({runDigest(r)}, expected), 1u);
}

TEST(Digest, MissingCellsCountAsFailed)
{
    EXPECT_EQ(digestMismatches({1, 2}, {1, 2, 3}), 1u);
    EXPECT_EQ(digestMismatches({0, 2, 3}, {1, 2, 3}), 1u);
}

TEST(SelfTime, SubtractsChildSpans)
{
    std::vector<SpanRecord> spans = {
        span(1, 0, "cell", 0, 100),
        span(2, 1, "sim.warmup", 10, 30),
        span(3, 1, "sim.measured", 50, 60),
        span(4, 3, "inner", 52, 55),
    };
    auto t = selfTimes(spans);
    EXPECT_EQ(t["cell"].ns, 70);
    EXPECT_EQ(t["sim.warmup"].ns, 20);
    EXPECT_EQ(t["sim.measured"].ns, 7);
    EXPECT_EQ(t["inner"].ns, 3);
}

TEST(SelfTime, OverlappingChildrenAreNotSubtractedTwice)
{
    std::vector<SpanRecord> spans = {
        span(1, 0, "cell", 0, 100),
        span(2, 1, "a", 10, 30),
        span(3, 1, "b", 20, 40),
        span(4, 1, "c", 90, 120), // clipped to the parent
    };
    EXPECT_EQ(selfTimes(spans)["cell"].ns, 100 - 30 - 10);
}

TEST(SelfTime, RaiiSpansNestPerThread)
{
    spanLog().clear();
    spanLog().enable(true);
    {
        Span outer("outer", 7);
        {
            Span inner("inner", 7);
            inner.setWork(5);
        }
        outer.rename("renamed");
    }
    spanLog().enable(false);
    { Span ignored("ignored"); }
    auto spans = spanLog().spans();
    spanLog().clear();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "renamed");
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].work, 5u);
    EXPECT_EQ(spans[1].cell, 7);
    auto t = selfTimes(spans);
    EXPECT_LE(t["renamed"].ns + t["inner"].ns,
              double(spans[0].endNs - spans[0].startNs));
}

namespace
{

/** One small row of the matrix (4 modes of astar at 4K). */
std::vector<ap::ExperimentSpec>
smallRow()
{
    std::vector<ap::ExperimentSpec> row;
    for (ap::ExperimentSpec s : ap::figure5Specs(20'000)) {
        if (s.workload == "astar" && s.pageSize == ap::PageSize::Size4K)
            row.push_back(s);
    }
    return row;
}

} // namespace

TEST(Runners, PlainPathAtDefaultSeedIsRunExperiment)
{
    ap::ExperimentSpec s = smallRow().front();
    std::uint64_t seed = ap::defaultParamsFor(s.workload).seed;
    EXPECT_EQ(runDigest(runPlain(s, seed)),
              runDigest(ap::runExperiment(s)));
    EXPECT_EQ(runDigest(runPlain(s, seed, 0, true)),
              runDigest(ap::runExperiment(s)));
}

TEST(Runners, SeedChangesTheResult)
{
    ap::ExperimentSpec s = smallRow().front();
    EXPECT_NE(runDigest(runPlain(s, 1)), runDigest(runPlain(s, 2)));
}

TEST(Runners, TracedMirrorsMatchTheLibraryEntryPoints)
{
    auto row = smallRow();
    // Library path; instrumented copy with spans off; with spans on.
    for (int variant = 0; variant < 3; ++variant) {
        bool traced = variant > 0;
        spanLog().clear();
        spanLog().enable(variant == 2);
        ap::TraceCache traces;
        ap::SnapshotCache snaps;
        ap::MachinePool pool;
        ap::TraceCache cached;
        // Two rounds: the first records and captures, the second forks.
        for (int round = 0; round < 2; ++round) {
            for (std::size_t i = 0; i < row.size(); ++i) {
                std::uint64_t want = runDigest(runPlain(row[i], 9));
                EXPECT_EQ(runDigest(runSnapshotted(traces, snaps, pool,
                                                   row[i], 9, i, traced)),
                          want)
                    << "snapshotted cell " << i << " traced " << traced;
                EXPECT_EQ(runDigest(runCached(cached, row[i], 9, i, traced)),
                          want)
                    << "cached cell " << i << " traced " << traced;
            }
        }
        EXPECT_GT(snaps.forks(), 0u);
        spanLog().enable(false);
        // Spans are recorded only while the log is enabled.
        EXPECT_EQ(spanLog().spans().empty(), variant != 2);
    }
    spanLog().clear();
}

TEST(Runners, InstrumentedCopiesSpanEveryStep)
{
    auto row = smallRow();
    ap::TraceCache traces;
    ap::SnapshotCache snaps;
    ap::MachinePool pool;
    spanLog().clear();
    spanLog().enable(true);
    // Round one records and captures; round two forks every cell.
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < row.size(); ++i)
            runSnapshotted(traces, snaps, pool, row[i], 9, i, true);
    }
    spanLog().enable(false);
    auto t = selfTimes(spanLog().spans());
    spanLog().clear();
    for (const char *n :
         {"cell", "trace.obtain", "trace.record", "trace.compile",
          "sim.construct", "sim.warmup", "sim.capture", "sim.restore",
          "trace.resume", "sim.measured", "sim.teardown"}) {
        EXPECT_GT(t[n].calls, 0u) << n;
    }
    // One recording per trace; every other cell waits on or finds it.
    EXPECT_EQ(t["trace.obtain"].calls, 1u);
    EXPECT_EQ(t["trace.wait"].calls, 2 * row.size() - 1);
    EXPECT_EQ(t["cell"].calls, 2 * row.size());
}

TEST(Benches, EveryNameBuilds)
{
    for (const std::string &n : benchNames()) {
        auto b = makeBench(n, 5);
        ASSERT_NE(b, nullptr) << n;
        EXPECT_FALSE(b->cells().empty());
    }
    EXPECT_EQ(makeBench("nope", 5), nullptr);
    // The wire spec has no seed: the service always runs the default.
    EXPECT_EQ(makeBench("service-rows", 5)->seed(), 42u);
}
