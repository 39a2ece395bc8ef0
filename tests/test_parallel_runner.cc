/**
 * @file
 * Tests for the parallel experiment engine: determinism (parallel
 * results bit-identical to serial, cell for cell), worker-count edge
 * cases, index coverage, and error propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"

namespace
{

using namespace ap;

/** Small operation count: enough to exercise faults and switches. */
constexpr std::uint64_t kOps = 5'000;

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.pageSize, b.pageSize);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.idealCycles, b.idealCycles);
    EXPECT_EQ(a.walkCycles, b.walkCycles);
    EXPECT_EQ(a.trapCycles, b.trapCycles);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    EXPECT_EQ(a.walks, b.walks);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.guestPageFaults, b.guestPageFaults);
    EXPECT_DOUBLE_EQ(a.avgWalkRefs, b.avgWalkRefs);
    for (int c = 0; c < 6; ++c)
        EXPECT_DOUBLE_EQ(a.coverage[c], b.coverage[c]);
}

TEST(EffectiveJobs, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(effectiveJobs(0), 1u);
    EXPECT_EQ(effectiveJobs(1), 1u);
    EXPECT_EQ(effectiveJobs(7), 7u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    parallelFor(n, 4, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndSingleton)
{
    int calls = 0;
    parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreJobsThanItems)
{
    std::vector<std::atomic<int>> counts(3);
    parallelFor(3, 64, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, PropagatesException)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [](std::size_t i) {
                        if (i == 37)
                            throw std::runtime_error("cell 37");
                    }),
        std::runtime_error);
}

TEST(ParallelMap, CollectsInIndexOrder)
{
    std::vector<std::size_t> squares =
        parallelMap(50, 4, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(RunExperiments, ParallelMatchesSerialCellForCell)
{
    // A spread of techniques and page sizes; every cell is an
    // independent machine, so jobs must not change any number.
    std::vector<ExperimentSpec> specs;
    for (const char *wl : {"gcc", "dedup", "graph500"}) {
        for (VirtMode mode : {VirtMode::Native, VirtMode::Nested,
                              VirtMode::Shadow, VirtMode::Agile}) {
            ExperimentSpec spec;
            spec.workload = wl;
            spec.mode = mode;
            spec.operations = kOps;
            specs.push_back(spec);
        }
    }

    std::vector<RunResult> serial = runExperiments(specs, 1);
    std::vector<RunResult> parallel = runExperiments(specs, 4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     specs[i].workload + ")");
        expectSameResult(serial[i], parallel[i]);
    }
}

TEST(RunExperiments, MoreJobsThanCells)
{
    std::vector<ExperimentSpec> specs(2);
    specs[0].workload = "astar";
    specs[0].mode = VirtMode::Agile;
    specs[0].operations = kOps;
    specs[1].workload = "astar";
    specs[1].mode = VirtMode::Shadow;
    specs[1].operations = kOps;

    std::vector<RunResult> serial = runExperiments(specs, 1);
    std::vector<RunResult> wide = runExperiments(specs, 16);
    ASSERT_EQ(wide.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i)
        expectSameResult(serial[i], wide[i]);
}

TEST(RunExperiments, Figure5MatrixDeterministic)
{
    // The full driver entry point with a tiny operation budget.
    std::vector<RunResult> serial = runFigure5Matrix(1'000, 1);
    std::vector<RunResult> parallel = runFigure5Matrix(1'000, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(), figure5Specs().size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectSameResult(serial[i], parallel[i]);
    }
}

TEST(RunExperiments, RecordersDispatchFirst)
{
    const std::vector<ExperimentSpec> specs = figure5Specs(1'000);
    std::vector<std::size_t> seen;
    std::vector<RunResult> results =
        runExperiments(specs, 1, [&](const ExperimentSpec &spec) {
            seen.push_back(&spec - specs.data());
            RunResult r;
            r.workload = spec.workload;
            r.mode = spec.mode;
            r.pageSize = spec.pageSize;
            return r;
        });

    // 8 workloads x 2 page sizes: the first cell of each stream group,
    // in input order, then every sibling, in input order.
    constexpr std::size_t kGroups = 16;
    ASSERT_EQ(seen.size(), specs.size());
    std::set<std::pair<std::string, PageSize>> streams;
    for (std::size_t k = 0; k < seen.size(); ++k) {
        const ExperimentSpec &s = specs[seen[k]];
        bool fresh = streams.insert({s.workload, s.pageSize}).second;
        EXPECT_EQ(fresh, k < kGroups) << "dispatch " << k;
        if (k > 0 && k != kGroups) {
            EXPECT_LT(seen[k - 1], seen[k]) << "dispatch " << k;
        }
    }
    EXPECT_EQ(streams.size(), kGroups);

    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(results[i].workload, specs[i].workload) << "cell " << i;
        EXPECT_EQ(results[i].mode, specs[i].mode) << "cell " << i;
        EXPECT_EQ(results[i].pageSize, specs[i].pageSize) << "cell " << i;
    }
}

TEST(RunExperiments, GroupsMatchTraceCacheKeys)
{
    std::vector<ExperimentSpec> specs = figure5Specs(0, true);
    for (const char *wl :
         {"shootdown_storm", "reclaim_scan", "page_migration"}) {
        for (std::uint64_t ops : {std::uint64_t(0), kOps}) {
            for (VirtMode mode :
                 {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
                for (TlbCoherence tc :
                     {TlbCoherence::Software, TlbCoherence::Hardware}) {
                    ExperimentSpec spec;
                    spec.workload = wl;
                    spec.mode = mode;
                    spec.operations = ops;
                    spec.numVcpus = 4;
                    spec.tlbCoherence = tc;
                    specs.push_back(spec);
                }
            }
        }
    }

    std::vector<TraceCacheKey> keys;
    for (const ExperimentSpec &spec : specs) {
        ResolvedSpec r = resolveSpec(spec);
        keys.push_back(traceCacheKey(spec.workload, r.params, r.cfg));
    }
    std::vector<std::size_t> group = streamGroups(specs);
    ASSERT_EQ(group.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_LE(group[i], i);
        for (std::size_t j = 0; j < specs.size(); ++j) {
            EXPECT_EQ(group[i] == group[j], keys[i] == keys[j])
                << "cells " << i << " and " << j;
        }
    }
}

} // namespace
