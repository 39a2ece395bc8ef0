/**
 * @file
 * Trace cache tests: the bit-identity contract (cached replay, batched
 * or not, reproduces a fresh Workload::step run field for field, for
 * every Table V workload and page size), first-wins memoization under
 * concurrency, whole-matrix equivalence with and without the cache
 * across jobs settings, and the CellEngine built on it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_cache.hh"
#include "workloads/consolidated.hh"
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
 * The core contract, per workload: for each page size and each
 * shadow-capable mode, a fresh generated run, the recording run, a
 * batched cached replay, and a per-event cached replay all produce
 * the identical RunResult.
 */
class TraceCacheEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceCacheEquivalence, CachedReplayMatchesFreshRun)
{
    const std::string wl = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        TraceCache cache;
        for (VirtMode mode :
             {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
            SCOPED_TRACE(wl + " " +
                         (ps == PageSize::Size4K ? "4K" : "2M") +
                         " mode " + std::to_string(int(mode)));
            SimConfig cfg = configFor(mode, ps, params);

            RunResult fresh;
            {
                Machine m(cfg);
                auto w = makeWorkload(wl, params);
                ASSERT_NE(w, nullptr);
                fresh = m.run(*w);
            }
            // First mode records (and must equal the fresh run);
            // later modes take the batched replay path.
            RunResult batched =
                runCellCached(cache, wl, params, cfg, true);
            // The key is now warm, so this always replays per-event.
            RunResult unbatched =
                runCellCached(cache, wl, params, cfg, false);

            expectSameResult(fresh, batched);
            expectSameResult(fresh, unbatched);
        }
        // One record per (workload, page size); everything else hit.
        EXPECT_EQ(cache.records(), 1u);
        EXPECT_EQ(cache.replays(), 5u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TraceCacheEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(TraceCache, FirstWinsConcurrent)
{
    TraceCache cache;
    TraceCacheKey key;
    key.workload = "unit";
    key.operations = 123;

    constexpr int kThreads = 8;
    std::atomic<int> recordings{0};
    std::vector<TraceCache::TracePtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = cache.obtain(key, [&] {
                ++recordings;
                // Widen the race window: losers must block, not
                // re-record.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                auto ct = std::make_shared<CompiledTrace>();
                ct->workload = "unit";
                return TraceCache::TracePtr(ct);
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(recordings.load(), 1);
    EXPECT_EQ(cache.records(), 1u);
    EXPECT_EQ(cache.replays(), std::uint64_t(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    }
}

TEST(TraceCache, DistinctKeysRecordIndependently)
{
    TraceCache cache;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceCacheKey key;
        key.workload = "unit";
        key.seed = seed;
        cache.obtain(key, [] {
            return std::make_shared<const CompiledTrace>();
        });
    }
    EXPECT_EQ(cache.records(), 4u);
    EXPECT_EQ(cache.replays(), 0u);
}

TEST(TraceCache, RecordingErrorPropagatesToAllRequesters)
{
    TraceCache cache;
    TraceCacheKey key;
    key.workload = "boom";
    auto bomb = []() -> TraceCache::TracePtr {
        throw std::runtime_error("recording failed");
    };
    EXPECT_THROW(cache.obtain(key, bomb), std::runtime_error);
    // The failure is sticky: later requesters see the stored
    // exception instead of silently re-recording.
    EXPECT_THROW(cache.obtain(
                     key,
                     [] {
                         ADD_FAILURE() << "record ran twice";
                         return std::make_shared<const CompiledTrace>();
                     }),
                 std::runtime_error);
}

TEST(TraceCache, MatrixWithCacheMatchesMatrixWithout)
{
    // The PR 1 guarantee, extended: a parallel matrix *with* the
    // cache is bit-identical to a serial matrix *without* it.
    std::vector<RunResult> plain = runFigure5Matrix(1'000, 1);

    TraceCache cache;
    std::vector<RunResult> cached = runExperiments(
        figure5Specs(1'000), 0, [&cache](const ExperimentSpec &spec) {
            ResolvedSpec r = resolveSpec(spec);
            return runCellCached(cache, spec.workload, r.params, r.cfg);
        });

    ASSERT_EQ(plain.size(), cached.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     plain[i].workload + ")");
        expectSameResult(plain[i], cached[i]);
    }
    // 8 workloads x 2 page sizes unique streams; 4 modes share each.
    EXPECT_EQ(cache.records(), 16u);
    EXPECT_EQ(cache.replays(), plain.size() - 16u);
}

/** A workload the registry cannot build: a hot window with rare far
 *  accesses into a small arena. */
class TinyWorkload : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "tiny"; }

    void
    init(WorkloadHost &host) override
    {
        arena_ = host.mmap(params_.footprintBytes, true, false, 0);
    }

    bool
    step(WorkloadHost &host) override
    {
        Rng &rng = host.rng();
        Addr span = rng.chance(0.05) ? params_.footprintBytes : 64 << 10;
        host.access(arena_ + rng.nextBelow(span), rng.chance(0.3));
        return ++ops_ < params_.operations;
    }

  private:
    Addr arena_ = 0;
    std::uint64_t ops_ = 0;
};

TEST(CellEngine, BenchLocalWorkloadMatchesFreshRun)
{
    WorkloadParams params;
    params.footprintBytes = 4ull << 20;
    params.operations = 5'000;
    params.seed = 7;
    CellEngine engine;
    for (VirtMode mode : {VirtMode::Nested, VirtMode::Agile}) {
        SimConfig cfg = configFor(mode, PageSize::Size4K, params);
        RunResult fresh;
        {
            Machine m(cfg);
            TinyWorkload w(params);
            fresh = m.run(w);
        }
        // Record (first mode only), capture, then fork; each call gets
        // a fresh instance, which only a recording call steps.
        for (int call = 0; call < 3; ++call) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)) + " call " +
                         std::to_string(call));
            TinyWorkload w(params);
            Machine m(cfg);
            RunResult r = engine.run("tiny@test", w, m);
            // The recording run reports the workload's own name;
            // replays report the cache name.
            bool recorder = mode == VirtMode::Nested && call == 0;
            EXPECT_EQ(r.workload, recorder ? "tiny" : "tiny@test");
            r.workload = fresh.workload;
            expectSameResult(fresh, r);
        }
    }
    EXPECT_EQ(engine.traces().records(), 1u);
    EXPECT_EQ(engine.snapshots().captures(), 2u);
    EXPECT_EQ(engine.snapshots().forks(), 3u);
}

TEST(CellEngine, TwoPassMatrixForksEveryCell)
{
    const std::vector<ExperimentSpec> specs = figure5Specs(1'000);
    std::vector<RunResult> plain = runFigure5Matrix(1'000, 1);
    auto expectPlain = [&](const std::vector<RunResult> &got) {
        ASSERT_EQ(plain.size(), got.size());
        for (std::size_t i = 0; i < plain.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                         plain[i].workload + ")");
            expectSameResult(plain[i], got[i]);
        }
    };

    CellEngine engine;
    const TraceCache &traces = engine.traces();
    const SnapshotCache &snaps = engine.snapshots();

    // Pass 1: one recording per stream (8 workloads x 2 page sizes);
    // every other cell captures its own config's warm image.
    expectPlain(engine.runAll(specs, 0));
    EXPECT_EQ(traces.records(), 16u);
    EXPECT_EQ(snaps.captures(), specs.size() - 16u);
    EXPECT_EQ(snaps.forks(), 0u);

    // Pass 2: nothing records. The recorders' configs never went
    // through the snapshot cache, so they capture now; the rest fork.
    expectPlain(engine.runAll(specs, 0));
    EXPECT_EQ(traces.records(), 16u);
    EXPECT_EQ(snaps.captures(), specs.size());
    EXPECT_EQ(snaps.forks(), specs.size() - 16u);

    // From here on every cell forks.
    expectPlain(engine.runAll(specs, 0));
    EXPECT_EQ(traces.records(), 16u);
    EXPECT_EQ(snaps.captures(), specs.size());
    EXPECT_EQ(snaps.forks(), 2 * specs.size() - 16u);
}

/** A fresh, empty directory: files from earlier test runs must not
 *  satisfy (or poison) this run's lookups. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A small consolidated cell under @p mode on the caller's engine. */
RunResult
consolidatedCell(CellEngine &engine, VirtMode mode)
{
    WorkloadParams p = smallParams();
    p.operations = 3'000;
    WorkloadParams sizing = p;
    sizing.footprintBytes *= 2;
    SimConfig cfg = configFor(mode, PageSize::Size4K, sizing);
    std::vector<std::unique_ptr<Workload>> slots;
    slots.push_back(makeWorkload("mcf", p));
    slots.push_back(makeWorkload("gcc", p));
    ConsolidatedWorkload w(std::move(slots), 500, cfg.warmupFraction);
    Machine m(cfg);
    return engine.run(w.name(), w, m);
}

TEST(CellEngine, SecondEngineOverDirectoryForksEveryCell)
{
    const std::string dir = freshDir("ap_engine_persist");
    std::vector<ExperimentSpec> specs;
    for (const char *wl : {"gcc", "mcf"}) {
        for (VirtMode mode :
             {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
            ExperimentSpec spec;
            spec.workload = wl;
            spec.mode = mode;
            spec.operations = 2'000;
            specs.push_back(spec);
        }
    }
    std::vector<RunResult> plain;
    for (const ExperimentSpec &spec : specs)
        plain.push_back(runExperiment(spec));
    const VirtMode consolidated_modes[] = {VirtMode::Nested,
                                           VirtMode::Agile};
    std::vector<RunResult> consolidated;
    {
        // Cold: one recording per stream, and with a directory the
        // recorders capture their warm images too.
        CellEngine engine(dir);
        std::vector<RunResult> got = engine.runAll(specs, 0);
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectSameResult(plain[i], got[i]);
        for (VirtMode mode : consolidated_modes)
            consolidated.push_back(consolidatedCell(engine, mode));
        EXPECT_EQ(engine.traces().records(), 3u);
        EXPECT_EQ(engine.traces().diskLoads(), 0u);
        EXPECT_EQ(engine.snapshots().captures(), specs.size() + 2);
    }
    {
        // Warm: a second engine over the same directory records and
        // captures nothing; every cell forks a loaded image.
        CellEngine engine(dir);
        std::vector<RunResult> got = engine.runAll(specs, 0);
        for (std::size_t i = 0; i < specs.size(); ++i)
            expectSameResult(plain[i], got[i]);
        for (std::size_t i = 0; i < 2; ++i) {
            RunResult r = consolidatedCell(engine, consolidated_modes[i]);
            expectSameResult(consolidated[i], r);
        }
        EXPECT_EQ(engine.traces().records(), 0u);
        EXPECT_EQ(engine.traces().diskLoads(), 3u);
        EXPECT_EQ(engine.snapshots().captures(), 0u);
        EXPECT_EQ(engine.snapshots().diskLoads(), specs.size() + 2);
    }
    std::filesystem::remove_all(dir);
}

TEST(CellEngine, UnreadableTraceFileIsRecordedAgain)
{
    const std::string dir = freshDir("ap_engine_bad_trace");
    ExperimentSpec spec;
    spec.workload = "gcc";
    spec.mode = VirtMode::Agile;
    spec.operations = 2'000;
    const RunResult plain = runExperiment(spec);
    {
        CellEngine engine(dir);
        engine.run(spec);
    }
    std::string trace_path;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".aptrace")
            trace_path = entry.path().string();
    }
    ASSERT_FALSE(trace_path.empty());
    const auto size = std::filesystem::file_size(trace_path);

    for (const char *damage : {"truncated", "garbage", "hostile header"}) {
        SCOPED_TRACE(damage);
        if (std::string(damage) == "truncated") {
            std::filesystem::resize_file(trace_path, size / 2);
        } else if (std::string(damage) == "garbage") {
            std::ofstream os(trace_path, std::ios::binary);
            for (std::uintmax_t i = 0; i < size; ++i)
                os.put(static_cast<char>(i * 131 + 7));
        } else {
            // Zero name length and counts, then 2^62 ops: 56 bytes.
            std::ofstream os(trace_path, std::ios::binary);
            os.write("APTRACE2", 8);
            for (int i = 0; i < 5; ++i)
                os.write("\0\0\0\0\0\0\0\0", 8);
            const std::uint64_t op_count = std::uint64_t(1) << 62;
            os.write(reinterpret_cast<const char *>(&op_count),
                     sizeof(op_count));
        }
        {
            CellEngine engine(dir);
            expectSameResult(plain, engine.run(spec));
            EXPECT_EQ(engine.traces().records(), 1u);
            EXPECT_EQ(engine.traces().diskLoads(), 0u);
        }
        // The re-recorded trace replaced the damaged file.
        CellEngine engine(dir);
        expectSameResult(plain, engine.run(spec));
        EXPECT_EQ(engine.traces().records(), 0u);
        EXPECT_EQ(engine.traces().diskLoads(), 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(CellEngine, SnapshotFileOfOlderLayoutIsCapturedAgain)
{
    const std::string dir = freshDir("ap_engine_old_snapshot");
    ExperimentSpec spec;
    spec.workload = "gcc";
    spec.mode = VirtMode::Shadow;
    spec.operations = 2'000;
    const RunResult plain = runExperiment(spec);
    {
        CellEngine engine(dir);
        engine.run(spec);
        EXPECT_EQ(engine.snapshots().captures(), 1u);
    }
    std::string snap_path;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".apsnap")
            snap_path = entry.path().string();
    }
    ASSERT_FALSE(snap_path.empty());
    {
        // Stamp the image with the previous container magic, APSNAP4,
        // whose TLB payload also carried a 1G DTLB.
        std::fstream f(snap_path,
                       std::ios::binary | std::ios::in | std::ios::out);
        char magic[8];
        ASSERT_TRUE(f.read(magic, sizeof(magic)));
        ASSERT_EQ(std::string(magic, 7), "APSNAP5");
        f.seekp(6);
        f.put('4');
    }
    {
        CellEngine engine(dir);
        expectSameResult(plain, engine.run(spec));
        EXPECT_EQ(engine.snapshots().diskLoads(), 0u);
        EXPECT_EQ(engine.snapshots().captures(), 1u);
    }
    // The fresh capture replaced the old image.
    CellEngine engine(dir);
    expectSameResult(plain, engine.run(spec));
    EXPECT_EQ(engine.snapshots().diskLoads(), 1u);
    EXPECT_EQ(engine.snapshots().captures(), 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
