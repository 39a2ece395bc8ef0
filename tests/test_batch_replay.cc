/**
 * @file
 * Batched-replay tests: Machine::runAccessBatch and its
 * last-translation (L0) filter must be invisible in the results.
 * Covers batched-vs-per-event bit identity for every Table V workload
 * across page sizes and modes (range included), and the same with
 * multiple vCPUs, where batches are split at quantum boundaries.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "trace/trace_cache.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ap;

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
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        EXPECT_EQ(a.trapByKind[k], b.trapByKind[k]);
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = 20'000;
    p.seed = 11;
    return p;
}

/**
 * The batched-replay contract, per workload: for each page size and
 * mode, the recording run, a batched replay and a per-event replay
 * of the same trace produce the identical RunResult.
 */
class BatchedReplayEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BatchedReplayEquivalence, BatchedReplayMatchesPerEventReplay)
{
    const std::string wl = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        TraceCache cache;
        for (VirtMode mode : {VirtMode::Nested, VirtMode::Shadow,
                              VirtMode::Agile, VirtMode::Range}) {
            SCOPED_TRACE(wl + " " +
                         (ps == PageSize::Size4K ? "4K" : "2M") +
                         " mode " + std::to_string(int(mode)));
            const SimConfig cfg = configFor(mode, ps, params);

            // The first cell per cache records; the rest replay.
            RunResult recorded =
                runCellCached(cache, wl, params, cfg, true);
            RunResult batched =
                runCellCached(cache, wl, params, cfg, true);
            RunResult per_event =
                runCellCached(cache, wl, params, cfg, false);
            expectSameResult(recorded, batched);
            expectSameResult(batched, per_event);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BatchedReplayEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

/**
 * Multi-vCPU batched replay: with numVcpus > 1 the batch loop splits
 * runs at vcpu-quantum boundaries instead of bailing to per-event
 * replay. A fresh generated run, the batched replay, and the
 * per-event replay must stay field-for-field identical at 2 and 4
 * vCPUs.
 */
TEST(BatchVector, MultiVcpuBatchedMatchesPerEvent)
{
    const WorkloadParams params = smallParams();
    for (const char *wl : {"graph500", "memcached"}) {
        for (unsigned vcpus : {2u, 4u}) {
            for (VirtMode mode : {VirtMode::Nested, VirtMode::Agile}) {
                SCOPED_TRACE(std::string(wl) + " vcpus " +
                             std::to_string(vcpus) + " mode " +
                             std::to_string(int(mode)));
                SimConfig cfg =
                    configFor(mode, PageSize::Size4K, params);
                cfg.numVcpus = vcpus;

                RunResult fresh;
                {
                    Machine m(cfg);
                    auto w = makeWorkload(wl, params);
                    ASSERT_NE(w, nullptr);
                    fresh = m.run(*w);
                }
                // The first cell per cache records (a live run); the
                // next two replay the recorded trace.
                TraceCache cache;
                RunResult recorded =
                    runCellCached(cache, wl, params, cfg, true);
                RunResult batched =
                    runCellCached(cache, wl, params, cfg, true);
                RunResult unbatched =
                    runCellCached(cache, wl, params, cfg, false);
                expectSameResult(fresh, recorded);
                expectSameResult(fresh, batched);
                expectSameResult(fresh, unbatched);
            }
        }
    }
}

} // namespace
