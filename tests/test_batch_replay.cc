/**
 * @file
 * Batched-replay tests: Machine::runAccessBatch and its
 * last-translation (L0) filter must be invisible in the results.
 * Covers batched-vs-per-event bit identity for every Table V workload
 * across page sizes and modes (range included), and the same with
 * multiple vCPUs, where batches are split at quantum boundaries. The
 * per-event path checks the same filter, so both are also held to an
 * unfiltered run (verifyTranslations), the independent reference.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

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
    EXPECT_EQ(a.numVcpus, b.numVcpus);
    EXPECT_EQ(a.coherenceCycles, b.coherenceCycles);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.remoteInvalidations, b.remoteInvalidations);
    for (std::size_t c = 0; c < kNumCoherenceCauses; ++c)
        EXPECT_EQ(a.shootdownsByCause[c], b.shootdownsByCause[c]);
    EXPECT_EQ(a.segmentHits, b.segmentHits);
    EXPECT_EQ(a.segmentSpills, b.segmentSpills);
    EXPECT_EQ(a.segmentInvalidations, b.segmentInvalidations);
    EXPECT_DOUBLE_EQ(a.rawRefsTotal, b.rawRefsTotal);
    for (int c = 0; c < 6; ++c)
        EXPECT_DOUBLE_EQ(a.rawCoverage[c], b.rawCoverage[c]);
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

/** One live (generated, per-event) run on a fresh machine. */
RunResult
liveRun(const std::string &wl, const WorkloadParams &params,
        const SimConfig &cfg, std::string *stats)
{
    Machine m(cfg);
    auto w = makeWorkload(wl, params);
    if (!w) {
        ADD_FAILURE() << "unknown workload " << wl;
        return {};
    }
    RunResult r = m.run(*w);
    std::ostringstream os;
    m.dump(os);
    *stats = os.str();
    return r;
}

struct FilterCase
{
    std::string workload;
    unsigned vcpus;
};

std::vector<FilterCase>
filterCases()
{
    std::vector<FilterCase> cases;
    for (const std::string &wl : workloadNames())
        cases.push_back({wl, 1});
    for (const char *wl :
         {"shootdown_storm", "reclaim_scan", "page_migration"}) {
        for (unsigned vcpus : {1u, 2u, 4u})
            cases.push_back({wl, vcpus});
    }
    return cases;
}

/**
 * The per-event L0 filter contract: a default run (filter on) and a
 * verifyTranslations run (filter off, every access probed and checked
 * against the functional mappings) produce the identical RunResult
 * and the identical stats dump, for every Figure 5 workload and the
 * coherence workloads at 1, 2 and 4 vCPUs.
 */
class PerEventFilterEquivalence
    : public ::testing::TestWithParam<FilterCase>
{
};

TEST_P(PerEventFilterEquivalence, FilteredRunMatchesUnfilteredRun)
{
    const FilterCase &fc = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        for (VirtMode mode : {VirtMode::Nested, VirtMode::Shadow,
                              VirtMode::Agile, VirtMode::Range}) {
            SCOPED_TRACE(fc.workload + " vcpus " +
                         std::to_string(fc.vcpus) + " " +
                         (ps == PageSize::Size4K ? "4K" : "2M") +
                         " mode " + std::to_string(int(mode)));
            SimConfig cfg = configFor(mode, ps, params);
            cfg.numVcpus = fc.vcpus;
            ASSERT_FALSE(cfg.verifyTranslations);
            std::string filtered_stats, checked_stats;
            RunResult filtered =
                liveRun(fc.workload, params, cfg, &filtered_stats);
            cfg.verifyTranslations = true;
            RunResult checked =
                liveRun(fc.workload, params, cfg, &checked_stats);
            expectSameResult(filtered, checked);
            EXPECT_EQ(filtered_stats, checked_stats);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerEventFilterEquivalence, ::testing::ValuesIn(filterCases()),
    [](const auto &info) {
        return info.param.workload + "_" +
               std::to_string(info.param.vcpus) + "vcpu";
    });

} // namespace
