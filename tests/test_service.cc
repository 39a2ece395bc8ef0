/**
 * @file
 * apsimd service tests: wire-protocol codecs, router placement
 * (digest affinity, work stealing, worker removal), and end-to-end
 * batches against a live pre-forked server — including the
 * malformed-frame error path, worker-crash retry, SIGTERM-style
 * drain, cell-for-cell bit-identity between streamed frames and
 * the in-process engine, and TCP_NODELAY on both ends of a TCP
 * connection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/types.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "service/client.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "sim/parallel_runner.hh"
#include "sim/report.hh"
#include "sim/snapshot.hh"
#include "trace/trace_cache.hh"

namespace
{

using namespace ap;
using namespace ap::service;

ExperimentSpec
smallSpec(const std::string &wl, VirtMode mode,
          PageSize ps = PageSize::Size4K)
{
    ExperimentSpec spec;
    spec.workload = wl;
    spec.mode = mode;
    spec.pageSize = ps;
    spec.operations = 30'000;
    return spec;
}

TEST(ServiceWire, SpecBatchRoundTrip)
{
    std::vector<ExperimentSpec> specs = {
        smallSpec("gcc", VirtMode::Agile),
        smallSpec("mcf", VirtMode::Nested, PageSize::Size2M),
    };
    specs[1].numVcpus = 4;
    specs[1].tlbCoherence = TlbCoherence::Hardware;
    specs[1].hwOpts = false;

    std::vector<ExperimentSpec> back;
    std::string err;
    ASSERT_TRUE(decodeBatch(encodeBatch(specs), back, err)) << err;
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].workload, "gcc");
    EXPECT_EQ(back[1].workload, "mcf");
    EXPECT_EQ(back[1].mode, VirtMode::Nested);
    EXPECT_EQ(back[1].pageSize, PageSize::Size2M);
    EXPECT_EQ(back[1].numVcpus, 4u);
    EXPECT_EQ(back[1].tlbCoherence, TlbCoherence::Hardware);
    EXPECT_FALSE(back[1].hwOpts);
    EXPECT_EQ(back[1].operations, 30'000u);
}

TEST(ServiceWire, DecodeRejectsGarbageAndBadSpecs)
{
    std::vector<ExperimentSpec> out;
    std::string err;
    EXPECT_FALSE(decodeBatch({0x01, 0x02, 0x03}, out, err));

    // Unknown workloads are rejected at decode time, not dispatched
    // into a worker where they would be fatal.
    std::vector<ExperimentSpec> bad = {
        smallSpec("no_such_workload", VirtMode::Agile)};
    EXPECT_FALSE(decodeBatch(encodeBatch(bad), out, err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

    // Out-of-range enum tags are caught before the cast.
    std::vector<std::uint8_t> payload =
        encodeBatch({smallSpec("gcc", VirtMode::Agile)});
    // The mode byte follows the marker, count and workload string; the
    // page-size byte follows it.
    std::size_t mode_off = 4 + 4 + 8 + 3;
    ASSERT_LT(mode_off + 1, payload.size());
    std::vector<std::uint8_t> bad_mode = payload;
    bad_mode[mode_off] = 0x7f;
    EXPECT_FALSE(decodeBatch(bad_mode, out, err));
    EXPECT_NE(err.find("mode tag out of range"), std::string::npos) << err;
    // Page tag 2, once 1 GB, is past the last page size (2 MB).
    std::vector<std::uint8_t> bad_page = payload;
    bad_page[mode_off + 1] = 2;
    EXPECT_FALSE(decodeBatch(bad_page, out, err));
    EXPECT_NE(err.find("page-size tag out of range"), std::string::npos)
        << err;

    EXPECT_FALSE(decodeBatch(encodeBatch({}), out, err));
}

TEST(ServiceWire, RunResultRoundTrip)
{
    RunResult r;
    r.workload = "gcc";
    r.mode = VirtMode::Range;
    r.pageSize = PageSize::Size2M;
    r.instructions = 123456;
    r.idealCycles = 777;
    r.walkCycles = 88;
    r.trapCycles = 9;
    r.tlbMisses = 42;
    r.walks = 41;
    r.traps = 7;
    r.guestPageFaults = 6;
    r.avgWalkRefs = 1.5;
    for (int i = 0; i < 6; ++i)
        r.coverage[i] = 0.1 * i;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        r.trapByKind[k] = 100 + k;
    r.numVcpus = 8;
    r.coherenceCycles = 5;
    r.shootdowns = 4;
    r.remoteInvalidations = 3;
    for (std::size_t k = 0; k < kNumCoherenceCauses; ++k)
        r.shootdownsByCause[k] = 10 + k;
    r.segmentHits = 2;
    r.segmentSpills = 1;
    r.segmentInvalidations = 9;
    r.rawRefsTotal = 3.25;

    Serializer s;
    putRunResult(s, r);
    Deserializer d(s.data());
    RunResult back;
    ASSERT_TRUE(getRunResult(d, back));

    // The decoded result must render the exact same JSON the sender
    // would have produced — that is the bit-identity the service
    // depends on.
    std::ostringstream a, b;
    writeRunResultJson(a, r);
    writeRunResultJson(b, back);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(back.rawRefsTotal, r.rawRefsTotal);
}

TEST(ServiceWire, RunResultRejectsOutOfRangeTags)
{
    RunResult r;
    r.workload = "gcc";
    r.mode = VirtMode::Range;
    r.pageSize = PageSize::Size2M;
    CellResult res;
    res.ok = true;
    res.run = r;
    const std::vector<std::uint8_t> good = encodeCellResult(res);
    CellResult back;
    ASSERT_TRUE(decodeCellResult(good, back));
    EXPECT_EQ(back.run.mode, VirtMode::Range);
    EXPECT_EQ(back.run.pageSize, PageSize::Size2M);

    // The mode byte follows batch, cell, ok flag, result marker and
    // workload string; the page-size byte follows it. Each is refused
    // one past its last enumerator and at 0xff.
    const std::size_t mode_off = 8 + 4 + 1 + 4 + 8 + 3;
    ASSERT_LT(mode_off + 1, good.size());
    ASSERT_EQ(good[mode_off], static_cast<std::uint8_t>(VirtMode::Range));
    ASSERT_EQ(good[mode_off + 1],
              static_cast<std::uint8_t>(PageSize::Size2M));
    for (std::size_t off : {mode_off, mode_off + 1}) {
        for (std::uint8_t tag : {std::uint8_t(good[off] + 1),
                                 std::uint8_t{0xff}}) {
            std::vector<std::uint8_t> bad = good;
            bad[off] = tag;
            EXPECT_FALSE(decodeCellResult(bad, back))
                << "offset " << off << " tag " << unsigned(tag);
        }
    }
}

TEST(ServiceWire, FrameJsonEnvelopes)
{
    RunResult r;
    r.workload = "gcc";
    std::string frame = renderRunFrame(3, 7, 1, r);
    EXPECT_NE(frame.find("\"schema\": \"ap-run-frame-v1\""),
              std::string::npos);
    EXPECT_EQ(cellOfFrame(frame), 7);
    EXPECT_EQ(workerOfFrame(frame), 1);
    std::ostringstream expect;
    writeRunResultJson(expect, r);
    EXPECT_EQ(runObjectOfFrame(frame), expect.str());

    std::string err = renderErrorFrame("bad \"thing\"\nhappened", 3, 7);
    EXPECT_NE(err.find("\\\"thing\\\""), std::string::npos);
    EXPECT_NE(err.find("\\u000a"), std::string::npos);
    EXPECT_EQ(err.find('\n'), std::string::npos);
}

TEST(ServiceRouter, AffinityPlacement)
{
    CellRouter router(4);
    // Same digest lands on the same worker regardless of load...
    router.enqueue(0, 0, 100);
    router.enqueue(0, 1, 100);
    router.enqueue(0, 2, 100);
    EXPECT_EQ(router.affinityHits(), 2u);
    // ...and distinct digests spread to the least-loaded workers.
    router.enqueue(0, 3, 200);
    router.enqueue(0, 4, 300);
    router.enqueue(0, 5, 400);
    unsigned with_cells = 0;
    for (unsigned w = 0; w < 4; ++w)
        with_cells += router.pending(w) > 0 ? 1 : 0;
    EXPECT_EQ(with_cells, 4u);
    EXPECT_EQ(router.pending(), 6u);
}

TEST(ServiceRouter, StealsFromBackOfLongestQueue)
{
    CellRouter router(2);
    router.enqueue(0, 0, 100);
    router.enqueue(0, 1, 100);
    router.enqueue(0, 2, 100);
    unsigned owner = router.pending(0) ? 0u : 1u;
    unsigned thief = 1 - owner;

    // The thief takes the *back* cell (index 2), not the front.
    auto stolen = router.next(thief);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->cell, 2u);
    EXPECT_EQ(router.steals(), 1u);

    // Digest ownership moved with the steal: the next same-digest cell
    // follows the thief's now-warm state.
    router.enqueue(0, 3, 100);
    EXPECT_EQ(router.pending(thief), 1u);

    auto own1 = router.next(owner);
    auto own2 = router.next(owner);
    ASSERT_TRUE(own1 && own2);
    EXPECT_EQ(own1->cell, 0u);
    EXPECT_EQ(own2->cell, 1u);
}

TEST(ServiceRouter, RemoveWorkerReenqueuesElsewhere)
{
    CellRouter router(2);
    router.enqueue(0, 0, 100);
    router.enqueue(0, 1, 100);
    unsigned owner = router.pending(0) ? 0u : 1u;
    unsigned other = 1 - owner;
    router.removeWorker(owner);
    EXPECT_FALSE(router.alive(owner));
    EXPECT_EQ(router.liveWorkers(), 1u);
    EXPECT_EQ(router.pending(other), 2u);
    router.removeWorker(other);
    EXPECT_EQ(router.liveWorkers(), 0u);
}

TEST(ServiceRouter, AffinityDigestIgnoresMode)
{
    ExperimentSpec agile = smallSpec("gcc", VirtMode::Agile);
    ExperimentSpec nested = smallSpec("gcc", VirtMode::Nested);
    EXPECT_EQ(affinityDigest(agile), affinityDigest(nested));
    ExperimentSpec other = smallSpec("mcf", VirtMode::Agile);
    EXPECT_NE(affinityDigest(agile), affinityDigest(other));
    ExperimentSpec big = smallSpec("gcc", VirtMode::Agile,
                                   PageSize::Size2M);
    EXPECT_NE(affinityDigest(agile), affinityDigest(big));
}

/** TCP_NODELAY as read back from @p fd; -1 if it cannot be read. */
int
noDelayOf(int fd)
{
    int v = 0;
    socklen_t len = sizeof(v);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len) < 0)
        return -1;
    return v;
}

TEST(ServiceWire, NoDelayLeavesUnixSocketsWorking)
{
    // A Unix socket has no Nagle and no TCP options: the helper skips
    // it, and frames still cross it.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    setNoDelay(sv[0]);
    setNoDelay(sv[1]);
    ASSERT_TRUE(writeFrame(sv[0], FrameType::Shutdown, std::string("x")));
    Frame f;
    ASSERT_EQ(readFrame(sv[1], f), ReadStatus::Ok);
    EXPECT_EQ(f.type, FrameType::Shutdown);
    EXPECT_EQ(f.payload.size(), 1u);
    ::close(sv[0]);
    ::close(sv[1]);
}

/** A live server on an ephemeral loopback port with its serve loop on
 *  a thread. start() forks the workers before the thread exists. */
class ServiceTest : public ::testing::Test
{
  protected:
    void
    startServer(unsigned workers, unsigned max_retries = 1)
    {
        ServiceOptions opt;
        opt.tcpPort = 0;
        opt.workers = workers;
        opt.maxCellRetries = max_retries;
        server_ = std::make_unique<ServiceServer>(opt);
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
        serve_thread_ = std::thread([this] { server_->serve(); });
        std::string cerr;
        ASSERT_TRUE(client_.connectTcp(server_->port(), &cerr)) << cerr;
    }

    /**
     * Stop the server and join its serve thread, then return the
     * stats. Tests must read stats through this: the serve thread
     * writes them, so reading while it still runs is a data race.
     */
    const ServiceStats &
    finishServer()
    {
        client_.close();
        server_->requestStop();
        if (serve_thread_.joinable())
            serve_thread_.join();
        return server_->stats();
    }

    void
    TearDown() override
    {
        client_.close();
        if (server_)
            server_->requestStop();
        if (serve_thread_.joinable())
            serve_thread_.join();
        server_.reset();
    }

    std::unique_ptr<ServiceServer> server_;
    std::thread serve_thread_;
    ServiceClient client_;
};

TEST_F(ServiceTest, BatchRoundTripStreamsEveryCell)
{
    startServer(2);
    std::vector<ExperimentSpec> specs = {
        smallSpec("gcc", VirtMode::Agile),
        smallSpec("gcc", VirtMode::Nested),
        smallSpec("mcf", VirtMode::Shadow),
    };
    std::vector<bool> seen(specs.size(), false);
    BatchOutcome out = client_.runBatch(
        specs, [&](FrameType type, const std::string &json) {
            if (type != FrameType::RunFrame)
                return;
            std::int64_t cell = cellOfFrame(json);
            ASSERT_GE(cell, 0);
            ASSERT_LT(cell, static_cast<std::int64_t>(specs.size()));
            EXPECT_FALSE(seen[cell]) << "duplicate cell " << cell;
            seen[cell] = true;
            std::int64_t worker = workerOfFrame(json);
            EXPECT_GE(worker, 0);
            EXPECT_LT(worker, 2);
            EXPECT_FALSE(runObjectOfFrame(json).empty());
        });
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.cells, specs.size());
    EXPECT_EQ(out.errors, 0u);
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST_F(ServiceTest, TcpConnectionHasNoDelayOnBothEnds)
{
    startServer(1);
    // An answered frame proves the server has accepted the connection.
    Frame response;
    ASSERT_TRUE(client_.roundTrip(FrameType::BatchRequest, {0}, response));
    ASSERT_EQ(response.type, FrameType::Error);

    // Client and server share this process, so both ends of the
    // connection are fds here: the connecting socket has the server's
    // port as its peer, the accepted one has it as its own.
    const int port = server_->port();
    int connecting = -1, accepted = -1;
    for (int fd = 0; fd < 1024; ++fd) {
        sockaddr_in self{}, peer{};
        socklen_t slen = sizeof(self), plen = sizeof(peer);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&self),
                          &slen) < 0 ||
            self.sin_family != AF_INET ||
            ::getpeername(fd, reinterpret_cast<sockaddr *>(&peer),
                          &plen) < 0)
            continue;
        if (ntohs(peer.sin_port) == port)
            connecting = fd;
        else if (ntohs(self.sin_port) == port)
            accepted = fd;
    }
    ASSERT_GE(connecting, 0);
    ASSERT_GE(accepted, 0);
    EXPECT_EQ(noDelayOf(connecting), 1);
    EXPECT_EQ(noDelayOf(accepted), 1);
}

TEST_F(ServiceTest, SmallBatchesBeatTheDelayedAckFloor)
{
    // Each frame goes out as a header write and a payload write. With
    // Nagle on either end, the payload waits for the peer's delayed
    // ACK of the header (about 40 ms on Linux loopback), so every round
    // trip takes 40 ms or more. The cell names no known workload: the
    // server answers it with an Error frame without simulating, so the
    // time is the transport's alone, in sanitizer builds too.
    startServer(1);
    ExperimentSpec spec = smallSpec("no-such-workload", VirtMode::Agile);
    const std::vector<std::uint8_t> batch = encodeBatch({spec});
    std::vector<double> ms;
    for (int i = 0; i < 8; ++i) {
        Frame response;
        auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(
            client_.roundTrip(FrameType::BatchRequest, batch, response));
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
        ASSERT_EQ(response.type, FrameType::Error);
    }
    std::sort(ms.begin(), ms.end());
    EXPECT_LT(ms[ms.size() / 2], 40.0)
        << "fastest " << ms.front() << " ms, slowest " << ms.back()
        << " ms";
}

TEST_F(ServiceTest, MalformedBatchGetsErrorFrameNotDisconnect)
{
    startServer(1);
    Frame response;
    ASSERT_TRUE(client_.roundTrip(FrameType::BatchRequest,
                                  {0xde, 0xad, 0xbe, 0xef}, response));
    EXPECT_EQ(response.type, FrameType::Error);
    std::string json(response.payload.begin(), response.payload.end());
    EXPECT_NE(json.find("ap-error-v1"), std::string::npos);

    // An invalid-but-well-framed batch is also answered, not dropped.
    std::vector<std::uint8_t> bad =
        encodeBatch({smallSpec("gcc", VirtMode::Agile)});
    bad[4 + 4 + 8 + 3] = 0x7f; // corrupt the mode tag
    ASSERT_TRUE(
        client_.roundTrip(FrameType::BatchRequest, bad, response));
    EXPECT_EQ(response.type, FrameType::Error);

    // The connection survived both: a valid batch still runs.
    BatchOutcome out =
        client_.runBatch({smallSpec("gcc", VirtMode::Agile)});
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.cells, 1u);
    EXPECT_EQ(finishServer().rejectedBatches, 2u);
}

TEST_F(ServiceTest, StreamedFramesMatchInProcessBitForBit)
{
    startServer(2);
    std::vector<ExperimentSpec> specs;
    for (VirtMode mode : {VirtMode::Native, VirtMode::Nested,
                          VirtMode::Shadow, VirtMode::Agile}) {
        specs.push_back(smallSpec("gcc", mode));
        specs.push_back(smallSpec("mcf", mode, PageSize::Size2M));
    }

    std::vector<std::string> got(specs.size());
    BatchOutcome out = client_.runBatch(
        specs, [&](FrameType type, const std::string &json) {
            if (type != FrameType::RunFrame)
                return;
            got[static_cast<std::size_t>(cellOfFrame(json))] =
                runObjectOfFrame(json);
        });
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.errors, 0u);

    CellEngine engine;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        RunResult r = engine.run(specs[i]);
        std::ostringstream expect;
        writeRunResultJson(expect, r);
        EXPECT_EQ(got[i], expect.str()) << "cell " << i;
    }
}

TEST_F(ServiceTest, WorkerCrashRetriesCellOnSibling)
{
    startServer(2);
    std::vector<ExperimentSpec> specs;
    for (int i = 0; i < 4; ++i) {
        specs.push_back(smallSpec("gcc", VirtMode::Agile));
        specs.back().operations = 60'000 + i * 1'000;
        specs.push_back(smallSpec("mcf", VirtMode::Nested));
        specs.back().operations = 60'000 + i * 1'000;
    }
    bool killed = false;
    BatchOutcome out = client_.runBatch(
        specs, [&](FrameType type, const std::string &) {
            if (type == FrameType::RunFrame && !killed) {
                // First result is in: the other worker is mid-cell.
                // Kill it and expect the dispatcher to finish the
                // batch on the survivor.
                killed = true;
                ::kill(server_->workerPids()[1], SIGKILL);
            }
        });
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.cells, specs.size());
    EXPECT_EQ(out.errors, 0u);
    EXPECT_GE(finishServer().workerCrashes, 1u);
}

TEST_F(ServiceTest, StopRequestDrainsInFlightBatch)
{
    startServer(2);
    std::vector<ExperimentSpec> specs = {
        smallSpec("gcc", VirtMode::Agile),
        smallSpec("gcc", VirtMode::Nested),
        smallSpec("gcc", VirtMode::Shadow),
        smallSpec("mcf", VirtMode::Agile),
    };
    bool stopped = false;
    BatchOutcome out = client_.runBatch(
        specs, [&](FrameType type, const std::string &) {
            if (type == FrameType::RunFrame && !stopped) {
                // SIGTERM would land here via the daemon's handler;
                // requestStop is the signal-safe entry it calls.
                stopped = true;
                server_->requestStop();
            }
        });
    // The stop request must NOT cut the batch short: every cell is
    // answered before the server exits.
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.cells, specs.size());
    serve_thread_.join();
    EXPECT_EQ(server_->stats().cells, specs.size());
}

TEST_F(ServiceTest, ShutdownFrameStopsServer)
{
    startServer(1);
    BatchOutcome out =
        client_.runBatch({smallSpec("gcc", VirtMode::Agile)});
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_TRUE(client_.sendShutdown());
    serve_thread_.join();
    EXPECT_EQ(server_->stats().cells, 1u);
}

TEST_F(ServiceTest, DigestAffinityKeepsFamiliesTogether)
{
    startServer(2);
    // Two affinity families (gcc and mcf), four modes each. With
    // affinity routing, each family's cells should overwhelmingly run
    // on one worker.
    std::vector<ExperimentSpec> specs;
    for (VirtMode mode : {VirtMode::Native, VirtMode::Nested,
                          VirtMode::Shadow, VirtMode::Agile}) {
        specs.push_back(smallSpec("gcc", mode));
        specs.push_back(smallSpec("mcf", mode));
    }
    BatchOutcome out = client_.runBatch(specs);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.errors, 0u);
    // 8 cells, 2 families: at least 6 placements were affinity hits
    // (the first cell of each family establishes ownership).
    EXPECT_GE(finishServer().affinityHits, 6u);
}

SnapshotCache::CaptureFn
fakeImage(std::size_t bytes)
{
    return [bytes] {
        auto snap = std::make_shared<MachineSnapshot>();
        snap->bytes.assign(bytes, 0xab);
        return snap;
    };
}

SnapshotKey
keyNamed(const std::string &name)
{
    SnapshotKey key;
    key.workload = name;
    return key;
}

TEST(SnapshotPoolLru, EvictsLeastRecentlyObtainedFirst)
{
    SnapshotCache cache;
    cache.setByteBudget(250);
    cache.obtain(keyNamed("a"), fakeImage(100));
    cache.obtain(keyNamed("b"), fakeImage(100));
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.residentBytes(), 200u);

    // The third image busts the budget; "a" is the LRU victim.
    cache.obtain(keyNamed("c"), fakeImage(100));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.residentBytes(), 200u);

    // An evicted key re-captures; a resident one is a hit.
    EXPECT_EQ(cache.captures(), 3u);
    cache.obtain(keyNamed("a"), fakeImage(100));
    EXPECT_EQ(cache.captures(), 4u);
    std::uint64_t forks = cache.forks();
    cache.obtain(keyNamed("c"), fakeImage(100));
    EXPECT_EQ(cache.forks(), forks + 1);
    EXPECT_EQ(cache.captures(), 4u);
}

TEST(SnapshotPoolLru, HitRefreshesRecency)
{
    SnapshotCache cache;
    cache.setByteBudget(250);
    cache.obtain(keyNamed("a"), fakeImage(100));
    cache.obtain(keyNamed("b"), fakeImage(100));
    // Touch "a": it becomes MRU, so the next eviction takes "b".
    cache.obtain(keyNamed("a"), fakeImage(100));
    cache.obtain(keyNamed("c"), fakeImage(100));
    EXPECT_EQ(cache.evictions(), 1u);
    std::uint64_t captures = cache.captures();
    cache.obtain(keyNamed("a"), fakeImage(100));
    EXPECT_EQ(cache.captures(), captures) << "hot key was evicted";
    cache.obtain(keyNamed("b"), fakeImage(100));
    EXPECT_EQ(cache.captures(), captures + 1);
}

TEST(SnapshotPoolLru, MruSurvivesEvenOverBudget)
{
    SnapshotCache cache;
    cache.setByteBudget(50);
    // One image over budget still resides — its own requesters must
    // be able to fork it.
    cache.obtain(keyNamed("a"), fakeImage(100));
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.residentBytes(), 100u);
    // The next insert displaces it, but never the new MRU itself.
    cache.obtain(keyNamed("b"), fakeImage(100));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.residentBytes(), 100u);
}

TEST(SnapshotPoolLru, ShrinkingBudgetEvictsImmediately)
{
    SnapshotCache cache;
    cache.obtain(keyNamed("a"), fakeImage(100));
    cache.obtain(keyNamed("b"), fakeImage(100));
    cache.obtain(keyNamed("c"), fakeImage(100));
    EXPECT_EQ(cache.residentBytes(), 300u);
    cache.setByteBudget(150);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.residentBytes(), 100u);
}

TEST(MachinePoolTest, LeasedForksMatchPoolLessForks)
{
    ExperimentSpec spec = smallSpec("gcc", VirtMode::Agile);
    ResolvedSpec rs = resolveSpec(spec);

    // Pool-less reference: each fork constructs its own machine.
    TraceCache ref_traces;
    SnapshotCache ref_snaps;
    RunResult ref = runCellSnapshotted(ref_traces, ref_snaps, spec.workload,
                                       rs.params, rs.cfg);
    std::ostringstream expect;
    writeRunResultJson(expect, ref);

    // Run 1 records the trace, run 2 captures the snapshot on the warm
    // machine; runs 3 and 4 take the fork path and lease a machine.
    TraceCache traces;
    SnapshotCache snaps;
    MachinePool pool;
    for (int run = 1; run <= 4; ++run) {
        RunResult r = runCellSnapshotted(traces, snaps, spec.workload,
                                         rs.params, rs.cfg, true, &pool);
        std::ostringstream got;
        writeRunResultJson(got, r);
        EXPECT_EQ(got.str(), expect.str()) << "run " << run;
    }
    EXPECT_EQ(pool.creates(), 2u);
    EXPECT_EQ(pool.reuses(), 0u);
}

TEST(MachinePoolTest, ParallelRunnersShareOnePool)
{
    // The worker-thread shape TSan needs to see: several runner
    // threads leasing machines from one pool while the snapshot cache
    // evicts under a byte budget.
    TraceCache traces;
    SnapshotCache snaps;
    snaps.setByteBudget(64ull << 20);
    MachinePool pool;
    std::vector<ExperimentSpec> specs;
    for (int rep = 0; rep < 3; ++rep)
        for (VirtMode mode : {VirtMode::Agile, VirtMode::Nested})
            specs.push_back(smallSpec("gcc", mode));

    std::vector<RunResult> results =
        runExperiments(specs, 2, [&](const ExperimentSpec &spec) {
            ResolvedSpec rs = resolveSpec(spec);
            return runCellSnapshotted(traces, snaps, spec.workload,
                                      rs.params, rs.cfg, true, &pool);
        });
    ASSERT_EQ(results.size(), specs.size());
    // Repeats of one spec are bit-identical regardless of which
    // thread and which leased machine ran them.
    for (std::size_t i = 2; i < specs.size(); ++i) {
        std::ostringstream first, later;
        writeRunResultJson(first, results[i % 2]);
        writeRunResultJson(later, results[i]);
        EXPECT_EQ(first.str(), later.str()) << "cell " << i;
    }
    EXPECT_EQ(pool.creates(), snaps.forks());
}

} // namespace
