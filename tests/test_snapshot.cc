/**
 * @file
 * Warm-state snapshot tests: the bit-identity contract (a measured
 * run forked from a restored snapshot reproduces the cold run field
 * for field, for every Table V workload, page size and shadow-capable
 * mode), the byte-identical re-capture invariant, the APSNAP2 on-disk
 * container (round trip, corruption, truncation), and the snapshot
 * cache's first-wins memoization, sticky errors and disk persistence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/snapshot.hh"
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

/** A warmed machine frozen at its boundary, plus the workload that
 *  drove it there (still positioned at the boundary). */
struct WarmState
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<Workload> workload;
    SnapshotPtr snap;
};

WarmState
warmUp(const std::string &wl, const WorkloadParams &params,
       const SimConfig &cfg)
{
    WarmState w;
    w.workload = makeWorkload(wl, params);
    EXPECT_NE(w.workload, nullptr);
    w.machine = std::make_unique<Machine>(cfg);
    w.machine->runWarmup(*w.workload);
    w.snap = captureSnapshot(*w.machine);
    return w;
}

/**
 * The core contract, per workload: for each page size and each
 * shadow-capable mode, the recording run, a warm-capture run (the
 * snapshot winner continuing its own machine), a forked run (fresh
 * machine restored from the snapshot) and a per-event forked run all
 * produce the identical RunResult as a fresh Workload::step run.
 */
class SnapshotEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SnapshotEquivalence, ForkedRunMatchesColdRun)
{
    const std::string wl = GetParam();
    const WorkloadParams params = smallParams();
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        for (VirtMode mode : {VirtMode::Nested, VirtMode::Shadow,
                              VirtMode::Agile, VirtMode::Range}) {
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

            TraceCache traces;
            SnapshotCache snaps;
            // 1st call records the trace (full cold run, no snapshot).
            RunResult recorded = runCellSnapshotted(
                traces, snaps, wl, params, cfg, true);
            // 2nd call wins the snapshot capture and continues the
            // machine it just warmed.
            RunResult warmed = runCellSnapshotted(traces, snaps, wl,
                                                  params, cfg, true);
            // 3rd call forks: restore + resumeAtBoundary + measured.
            RunResult forked = runCellSnapshotted(traces, snaps, wl,
                                                  params, cfg, true);
            // 4th call forks onto the per-event replay fallback.
            RunResult unbatched = runCellSnapshotted(traces, snaps, wl,
                                                     params, cfg, false);

            expectSameResult(fresh, recorded);
            expectSameResult(fresh, warmed);
            expectSameResult(fresh, forked);
            expectSameResult(fresh, unbatched);
            EXPECT_EQ(snaps.captures(), 1u);
            EXPECT_EQ(snaps.forks(), 2u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SnapshotEquivalence,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(Snapshot, RestoredMachineRecapturesByteIdentical)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size4K, params);
    WarmState w = warmUp("memcached", params, cfg);

    Machine restored(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, restored));
    SnapshotPtr again = captureSnapshot(restored);

    EXPECT_EQ(w.snap->configDigest, again->configDigest);
    ASSERT_EQ(w.snap->bytes.size(), again->bytes.size());
    EXPECT_EQ(w.snap->bytes, again->bytes);
}

TEST(Snapshot, RestoredRunContinuesWorkloadIdentically)
{
    // Restore into a fresh machine, then let the *same* workload
    // object (still sitting at its boundary) finish there: the result
    // must equal a straight cold run.
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Shadow, PageSize::Size4K, params);

    RunResult cold;
    {
        Machine m(cfg);
        auto w = makeWorkload("mcf", params);
        ASSERT_NE(w, nullptr);
        cold = m.run(*w);
    }

    WarmState w = warmUp("mcf", params, cfg);
    Machine forked(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, forked));
    RunResult r = forked.runMeasured(*w.workload);
    expectSameResult(cold, r);
}

TEST(Snapshot, RestoredStatsTreeDumpsIdentically)
{
    // The whole stats tree travels with the snapshot: a restored
    // machine's JSON dump must be indistinguishable from the source's.
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size2M, params);
    WarmState w = warmUp("canneal", params, cfg);

    Machine restored(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, restored));

    std::ostringstream a, b;
    w.machine->dumpJson(a);
    restored.dumpJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Snapshot, ConfigDigestMismatchRejected)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size4K, params);
    WarmState w = warmUp("mcf", params, cfg);

    SimConfig other = cfg;
    other.walkRefCycles += 1;
    EXPECT_NE(simConfigDigest(cfg), simConfigDigest(other));
    Machine m(other);
    EXPECT_FALSE(restoreSnapshot(*w.snap, m));
}

TEST(Snapshot, DigestCoversPolicyKnobs)
{
    SimConfig a;
    SimConfig b = a;
    EXPECT_EQ(simConfigDigest(a), simConfigDigest(b));
    b.policy.writeThreshold += 1;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.shsp.minResidency += 1;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.tlb.l2u4k.entries *= 2;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
    b = a;
    b.mode = VirtMode::Nested;
    EXPECT_NE(simConfigDigest(a), simConfigDigest(b));
}

TEST(Snapshot, FileRoundTrip)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Nested, PageSize::Size4K, params);
    WarmState w = warmUp("graph500", params, cfg);

    const std::string path = testing::TempDir() + "/roundtrip.apsnap";
    ASSERT_TRUE(writeSnapshotFile(*w.snap, path));

    MachineSnapshot loaded;
    ASSERT_TRUE(readSnapshotFile(path, loaded));
    EXPECT_EQ(loaded.configDigest, w.snap->configDigest);
    EXPECT_EQ(loaded.bytes, w.snap->bytes);

    Machine m(cfg);
    ASSERT_TRUE(restoreSnapshot(loaded, m));
    RunResult r = m.runMeasured(*w.workload);
    EXPECT_GT(r.instructions, 0u);
    std::remove(path.c_str());
}

TEST(Snapshot, CorruptAndTruncatedFilesRejected)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Nested, PageSize::Size4K, params);
    WarmState w = warmUp("mcf", params, cfg);

    const std::string path = testing::TempDir() + "/corrupt.apsnap";
    ASSERT_TRUE(writeSnapshotFile(*w.snap, path));

    std::vector<char> raw;
    {
        std::ifstream is(path, std::ios::binary);
        raw.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_GT(raw.size(), 64u);

    auto writeRaw = [&](const std::vector<char> &bytes) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    };
    MachineSnapshot out;

    // Bad magic.
    std::vector<char> bad = raw;
    bad[0] ^= 0x40;
    writeRaw(bad);
    EXPECT_FALSE(readSnapshotFile(path, out));

    // Flipped payload bit (checksum must catch it).
    bad = raw;
    bad[raw.size() / 2] ^= 0x01;
    writeRaw(bad);
    EXPECT_FALSE(readSnapshotFile(path, out));

    // Truncation at several depths.
    for (std::size_t keep :
         {std::size_t{4}, std::size_t{20}, raw.size() - 9}) {
        bad.assign(raw.begin(),
                   raw.begin() + static_cast<std::ptrdiff_t>(keep));
        writeRaw(bad);
        EXPECT_FALSE(readSnapshotFile(path, out)) << "keep=" << keep;
    }

    // A header that claims the largest accepted payload (2^36 bytes)
    // and then ends: refused after at most one bounded chunk, with no
    // buffer sized from the claim.
    {
        std::string hostile(raw.begin(), raw.begin() + 16);
        const std::uint64_t claim = std::uint64_t{1} << 36;
        hostile.append(reinterpret_cast<const char *>(&claim),
                       sizeof(claim));
        ASSERT_EQ(hostile.size(), 24u);
        std::istringstream is(hostile);
        MachineSnapshot fresh;
        EXPECT_FALSE(readSnapshot(is, fresh));
        EXPECT_LE(fresh.bytes.capacity(), std::size_t{1} << 20);
    }

    // A garbage *payload* that passes the container checks must still
    // be rejected by restore (markers / bounds), not crash.
    MachineSnapshot garbage;
    garbage.configDigest = simConfigDigest(cfg);
    garbage.bytes.assign(1024, 0x5a);
    Machine m(cfg);
    EXPECT_FALSE(restoreSnapshot(garbage, m));

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Growth rule: images and restores cost what the machine touched
// ---------------------------------------------------------------------

TEST(Snapshot, MachineThatRanRefusesRestoreAndFreshOneRestores)
{
    const WorkloadParams params = smallParams();
    SimConfig cfg =
        configFor(VirtMode::Agile, PageSize::Size4K, params);
    WarmState w = warmUp("memcached", params, cfg);

    // A machine that ran a workload keeps its state: restore refuses
    // it before reading a byte of the image.
    Machine ran(cfg);
    auto prior = makeWorkload("mcf", params);
    ran.run(*prior);
    const std::vector<std::uint8_t> after_run = captureSnapshot(ran)->bytes;
    EXPECT_FALSE(restoreSnapshot(*w.snap, ran));
    EXPECT_EQ(captureSnapshot(ran)->bytes, after_run);

    // So does one that only spawned a process.
    Machine spawned(cfg);
    spawned.spawnProcess();
    EXPECT_FALSE(restoreSnapshot(*w.snap, spawned));

    // A newly built machine restores the image byte for byte and runs
    // on like the cold machine.
    Machine fresh(cfg);
    ASSERT_TRUE(restoreSnapshot(*w.snap, fresh));
    EXPECT_EQ(captureSnapshot(fresh)->bytes, w.snap->bytes);
    expectSameResult(fresh.runMeasured(*w.workload),
                     [&] {
                         auto again = makeWorkload("memcached", params);
                         Machine cold(cfg);
                         return cold.run(*again);
                     }());
}

TEST(Snapshot, LightlyTouchedMachineImageStaysSmall)
{
    // A machine configured with 2^18 host frames that touched only a
    // few of them: its frame tables (16 B + 8 B per frame) and the
    // VMM backing table (24 B per guest frame) would add about 10 MiB
    // if they were saved at configured size. Keep the image under
    // 1 MiB so capacity-sized state cannot creep back.
    SimConfig cfg;
    cfg.mode = VirtMode::Agile;
    ASSERT_EQ(cfg.hostMemFrames, 1u << 18);
    WorkloadParams params;
    params.footprintBytes = 1u << 20;
    params.operations = 4000;
    params.seed = 5;
    Machine m(cfg);
    auto w = makeWorkload("mcf", params);
    m.runWarmup(*w);
    ASSERT_GT(m.physMem().allocated(), 0u);
    ASSERT_LT(m.physMem().allocated(), 1024u);
    EXPECT_LT(captureSnapshot(m)->bytes.size(), std::size_t{1} << 20);
}

/** Restore-time validation of allocator state in crafted images. */
class RestoreValidation : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kPmem = 0x4d454d50;
    static constexpr std::uint32_t kVmm = 0x204d4d56;

    void
    SetUp() override
    {
        params_ = smallParams();
        cfg_ = configFor(VirtMode::Agile, PageSize::Size4K, params_);
        w_ = warmUp("mcf", params_, cfg_);
        image_ = w_.snap->bytes;
        pmem_ = afterMarker(kPmem);
        vmm_ = afterMarker(kVmm);
        ASSERT_EQ(word(pmem_), cfg_.hostMemFrames);
        ASSERT_EQ(word(vmm_), cfg_.guestPtFrames);
    }

    std::size_t
    afterMarker(std::uint32_t marker) const
    {
        std::uint8_t m[4];
        std::memcpy(m, &marker, sizeof(m));
        auto it = std::search(image_.begin(), image_.end(), m, m + 4);
        EXPECT_NE(it, image_.end());
        return static_cast<std::size_t>(it - image_.begin()) + 4;
    }

    std::uint64_t
    word(std::size_t at) const
    {
        std::uint64_t v = 0;
        std::memcpy(&v, image_.data() + at, sizeof(v));
        return v;
    }

    void
    setWord(std::size_t at, std::uint64_t v)
    {
        std::memcpy(image_.data() + at, &v, sizeof(v));
    }

    /** Prepend @p id to the length-prefixed free list at @p at. */
    void
    addFreeEntry(std::size_t at, std::uint64_t id)
    {
        setWord(at, word(at) + 1);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&id);
        image_.insert(image_.begin() + static_cast<std::ptrdiff_t>(at + 8),
                      p, p + sizeof(id));
    }

    /** Offsets of a saved FrameAllocator's fields from @p at. */
    static constexpr std::size_t kNext = 16, kFreeList = 24;

    /** Offset of the data allocator (after the PT allocator). */
    std::size_t
    dataAlloc() const
    {
        return vmm_ + kFreeList + 8 + 8 * word(vmm_ + kFreeList) + 16;
    }

    bool
    restores() const
    {
        MachineSnapshot snap;
        snap.configDigest = w_.snap->configDigest;
        snap.bytes = image_;
        Machine m(cfg_);
        return restoreSnapshot(snap, m);
    }

    WorkloadParams params_;
    SimConfig cfg_;
    WarmState w_;
    std::vector<std::uint8_t> image_;
    std::size_t pmem_ = 0;
    std::size_t vmm_ = 0;
};

TEST_F(RestoreValidation, UntouchedImageRestores)
{
    EXPECT_TRUE(restores());
}

TEST_F(RestoreValidation, PmemFreeListOutsideHandedOutFramesRejected)
{
    const std::uint64_t next_fresh = word(pmem_ + 16);
    const std::vector<std::uint8_t> good = image_;
    for (std::uint64_t id : {std::uint64_t{0}, next_fresh,
                             cfg_.hostMemFrames + 1,
                             std::uint64_t{1} << 40}) {
        SCOPED_TRACE(id);
        image_ = good;
        addFreeEntry(pmem_ + 24, id);
        EXPECT_FALSE(restores());
    }
    // An entry inside [1, next_fresh) passes this check.
    image_ = good;
    addFreeEntry(pmem_ + 24, next_fresh - 1);
    EXPECT_TRUE(restores());
}

TEST_F(RestoreValidation, PmemCursorPastCapacityRejected)
{
    setWord(pmem_ + 16, cfg_.hostMemFrames + 2);
    EXPECT_FALSE(restores());
}

TEST_F(RestoreValidation, PmemBadFrameRecordLeavesMachineIntact)
{
    // Frame 1's kind byte follows the three allocator words, the
    // length-prefixed free list and the five table counts.
    const std::size_t frame1 = pmem_ + 32 + 8 * word(pmem_ + 24) + 40;
    ASSERT_LE(image_[frame1], 2u);
    image_[frame1] = 7;
    // The on-disk container takes it: digest and checksum are valid.
    MachineSnapshot snap;
    snap.configDigest = w_.snap->configDigest;
    snap.bytes = image_;
    std::stringstream file;
    ASSERT_TRUE(writeSnapshot(snap, file));
    MachineSnapshot read;
    ASSERT_TRUE(readSnapshot(file, read));
    {
        Machine m(cfg_);
        EXPECT_FALSE(restoreSnapshot(read, m));
        // The refused image left the machine's own page-table pages,
        // so its destructor tears its page tables down cleanly.
    }
}

TEST_F(RestoreValidation, VmmAllocatorCursorPastCapacityRejected)
{
    setWord(vmm_ + kNext, cfg_.guestPtFrames + 2);
    EXPECT_FALSE(restores());
}

TEST_F(RestoreValidation, VmmAllocatorFreeListOutsideCursorRejected)
{
    const std::size_t data = dataAlloc();
    ASSERT_EQ(word(data), cfg_.guestDataFrames);
    const std::vector<std::uint8_t> good = image_;
    for (std::uint64_t id : {std::uint64_t{0}, word(data + kNext),
                             cfg_.guestDataFrames + 1}) {
        SCOPED_TRACE(id);
        image_ = good;
        addFreeEntry(data + kFreeList, id);
        EXPECT_FALSE(restores());
    }
    image_ = good;
    addFreeEntry(vmm_ + kFreeList, word(vmm_ + kNext));
    EXPECT_FALSE(restores());
}

TEST_F(RestoreValidation, VmmBackingTableLongerThanGuestSpaceRejected)
{
    // Guest frames run up to dataBase + guestDataFrames, dataBase being
    // the first 2 MB boundary past the PT region.
    const std::uint64_t group = 512;
    const std::uint64_t limit =
        (cfg_.guestPtFrames + group) / group * group +
        cfg_.guestDataFrames + 1;
    const std::size_t data = dataAlloc();
    // Skip the data allocator's fields, the hPT root and page count.
    const std::size_t at =
        data + kFreeList + 8 + 8 * word(data + kFreeList) + 16 + 16;
    const std::uint64_t used = word(at);
    ASSERT_GT(used, 0u);
    ASSERT_LT(used, limit);
    const std::vector<std::uint8_t> good = image_;
    auto padTo = [&](std::uint64_t n) {
        image_ = good;
        setWord(at, n);
        image_.insert(image_.begin() +
                          static_cast<std::ptrdiff_t>(at + 8 + used * 24),
                      (n - used) * 24, std::uint8_t{0});
    };
    // Unbacked slots up to the end of the guest space are accepted.
    padTo(limit);
    EXPECT_TRUE(restores());
    padTo(limit + 1);
    EXPECT_FALSE(restores());
}

TEST(SnapshotCache, FirstWinsConcurrent)
{
    SnapshotCache cache;
    SnapshotKey key;
    key.workload = "unit";
    key.operations = 123;

    constexpr int kThreads = 8;
    std::atomic<int> captures{0};
    std::vector<SnapshotPtr> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[t] = cache.obtain(key, [&] {
                ++captures;
                // Widen the race window: losers must block, not
                // re-capture.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                auto s = std::make_shared<MachineSnapshot>();
                s->bytes = {1, 2, 3};
                return SnapshotPtr(s);
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(captures.load(), 1);
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.forks(), std::uint64_t(kThreads - 1));
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    }
}

TEST(SnapshotCache, DistinctKeysCaptureIndependently)
{
    SnapshotCache cache;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        SnapshotKey key;
        key.workload = "unit";
        key.seed = seed;
        cache.obtain(key, [] {
            return std::make_shared<const MachineSnapshot>();
        });
    }
    EXPECT_EQ(cache.captures(), 4u);
    EXPECT_EQ(cache.forks(), 0u);
}

TEST(SnapshotCache, CaptureErrorPropagatesToAllRequesters)
{
    SnapshotCache cache;
    SnapshotKey key;
    key.workload = "boom";
    auto bomb = []() -> SnapshotPtr {
        throw std::runtime_error("capture failed");
    };
    EXPECT_THROW(cache.obtain(key, bomb), std::runtime_error);
    // The failure is sticky: later requesters see the stored
    // exception instead of silently re-capturing.
    EXPECT_THROW(
        cache.obtain(key,
                     [] {
                         ADD_FAILURE() << "capture ran twice";
                         return std::make_shared<const MachineSnapshot>();
                     }),
        std::runtime_error);
}

TEST(SnapshotCache, DirectoryPersistsAcrossInstances)
{
    // A fresh directory: stale files from earlier test runs must not
    // satisfy (or poison) this run's lookups.
    const std::string dir = testing::TempDir() + "/apsnap_cache_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SnapshotKey key;
    key.workload = "persist";
    key.seed = 7;
    key.configDigest = 0xabcdef;

    auto make = [] {
        auto s = std::make_shared<MachineSnapshot>();
        s->configDigest = 0xabcdef;
        s->bytes = {9, 8, 7, 6};
        return SnapshotPtr(s);
    };

    {
        SnapshotCache cache(dir);
        cache.obtain(key, make);
        EXPECT_EQ(cache.captures(), 1u);
        EXPECT_EQ(cache.diskLoads(), 0u);
    }
    {
        // A fresh cache (fresh process, morally) loads from disk and
        // never runs the capture function.
        SnapshotCache cache(dir);
        SnapshotPtr s = cache.obtain(key, []() -> SnapshotPtr {
            ADD_FAILURE() << "captured despite disk copy";
            return std::make_shared<const MachineSnapshot>();
        });
        EXPECT_EQ(cache.captures(), 0u);
        EXPECT_EQ(cache.diskLoads(), 1u);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->bytes, (std::vector<std::uint8_t>{9, 8, 7, 6}));
    }
    {
        // A different config digest is a different key: no stored
        // file matches, so the capture function runs.
        SnapshotCache cache(dir);
        SnapshotKey other = key;
        other.configDigest = 0x123456;
        auto remade = std::make_shared<MachineSnapshot>();
        remade->configDigest = 0x123456;
        SnapshotPtr s =
            cache.obtain(other, [&] { return SnapshotPtr(remade); });
        EXPECT_EQ(cache.captures(), 1u);
        EXPECT_EQ(s, SnapshotPtr(remade));
    }
    std::filesystem::remove_all(dir);
}

TEST(SnapshotCache, MatrixWithSnapshotsMatchesMatrixWithout)
{
    // Whole-matrix equivalence through both caches, in parallel, vs
    // the plain serial matrix.
    std::vector<RunResult> plain = runFigure5Matrix(1'000, 1);

    CellEngine engine;
    std::vector<RunResult> warm = engine.runAll(figure5Specs(1'000), 0);

    ASSERT_EQ(plain.size(), warm.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     plain[i].workload + ")");
        expectSameResult(plain[i], warm[i]);
    }
}

} // namespace
