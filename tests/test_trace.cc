/**
 * @file
 * Trace subsystem tests: recording fidelity, serialization round-trip,
 * and the key methodology property — replaying a captured trace on an
 * identically configured machine reproduces the original measurements
 * exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "sim/machine.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace ap
{
namespace
{

SimConfig
testConfig(VirtMode mode)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = 1 << 16;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 15;
    return cfg;
}

WorkloadParams
testParams()
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = 40'000;
    p.seed = 11;
    return p;
}

TEST(Trace, SerializationRoundTrip)
{
    Trace t;
    t.workload = "unit";
    t.seed = 99;
    t.warmupEvents = 1;
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::MmapAt, 0x10000, 0x4000, 7, true,
                   true});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x10123, 0, 0, true, false});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});

    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    Trace back;
    ASSERT_TRUE(readTrace(ss, back));
    EXPECT_EQ(back.workload, "unit");
    EXPECT_EQ(back.seed, 99u);
    EXPECT_EQ(back.warmupEvents, 1u);
    ASSERT_EQ(back.events.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(back.events[i], t.events[i]);
}

TEST(Trace, RejectsGarbage)
{
    std::stringstream ss;
    ss << "not a trace at all";
    Trace t;
    EXPECT_FALSE(readTrace(ss, t));
}

/** A trace whose first event is a process switch, then one of each
 *  multi-process kind between accesses. */
Trace
processTrace()
{
    Trace t;
    t.workload = "u";
    t.seed = 5;
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::SwitchTo, 0, 1, 0, false, false});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x2000, 0, 0, true, false});
    t.events.push_back(TraceEvent{TraceEvent::Kind::SpawnProcess, 0, 2, 0,
                                  false, false});
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x3000, 0, 0, false, false});
    t.warmupEvents = 2;
    return t;
}

TEST(Trace, ProcessEventsRoundTrip)
{
    const Trace t = processTrace();
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    Trace back;
    ASSERT_TRUE(readTrace(ss, back));
    EXPECT_EQ(back.warmupEvents, t.warmupEvents);
    ASSERT_EQ(back.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(back.events[i], t.events[i]) << "event " << i;
}

TEST(Trace, ReadersRejectKindPastLast)
{
    // The first event is a control event, so its kind byte sits right
    // after the header: magic, name length, name, then five 8-byte
    // counts.
    const Trace t = processTrace();
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    std::string bytes = ss.str();
    const std::size_t at = 8 + 8 + t.workload.size() + 40;
    ASSERT_EQ(bytes[at], static_cast<char>(TraceEvent::Kind::SwitchTo));
    bytes[at] = static_cast<char>(
        static_cast<std::uint8_t>(TraceEvent::kLastKind) + 1);
    std::stringstream bad(bytes);
    Trace back;
    EXPECT_FALSE(readTrace(bad, back));
    std::stringstream bad2(bytes);
    CompiledTrace c;
    EXPECT_FALSE(readCompiledTrace(bad2, c));
}

/** A 56-byte APTRACE2 file: an empty name, zero counts, and an op
 *  count of 2^62 that no stream could hold. */
std::string
hostileTraceHeader()
{
    std::string bytes = "APTRACE2";
    bytes.append(5 * 8, '\0'); // name length, seed, warmup events and
                               // ops, event count
    const std::uint64_t op_count = std::uint64_t(1) << 62;
    bytes.append(reinterpret_cast<const char *>(&op_count),
                 sizeof(op_count));
    return bytes;
}

TEST(CompiledTrace, RejectsHeaderCountsPastItsOps)
{
    // Replay and resumeAtBoundary index by the header counts, so a
    // file whose counts do not describe its ops must not load.
    const CompiledTrace good = compileTrace(processTrace());
    auto loads = [](const CompiledTrace &c) {
        std::stringstream ss;
        EXPECT_TRUE(writeCompiledTrace(c, ss));
        CompiledTrace back;
        return readCompiledTrace(ss, back);
    };
    EXPECT_TRUE(loads(good));
    CompiledTrace bad = good;
    bad.warmupOps = good.ops.size() + 1;
    EXPECT_FALSE(loads(bad));
    bad = good;
    bad.eventCount += 1;
    EXPECT_FALSE(loads(bad));
    bad = good;
    bad.warmupEvents += 1;
    EXPECT_FALSE(loads(bad));

    // A bare header whose op count no stream could hold: refused, not
    // allocated for.
    std::stringstream hostile(hostileTraceHeader());
    CompiledTrace back;
    EXPECT_FALSE(readCompiledTrace(hostile, back));
}

TEST(Trace, FileRoundTrip)
{
    Trace t;
    t.workload = "filetest";
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x1000, 0, 0, false, false});
    std::string path = ::testing::TempDir() + "ap_trace_test.bin";
    ASSERT_TRUE(writeTraceFile(t, path));
    Trace back;
    ASSERT_TRUE(readTraceFile(path, back));
    EXPECT_EQ(back.events.size(), 1u);
    std::remove(path.c_str());
}

TEST(Trace, RecorderCapturesResolvedBases)
{
    Machine m(testConfig(VirtMode::Nested));
    m.spawnProcess();
    TraceRecorder rec(m);
    Addr base = rec.mmap(4 * kPageBytes, true, false, 0);
    rec.access(base + 0x1000, true);
    rec.munmap(base, 4 * kPageBytes);
    const Trace &t = rec.trace();
    ASSERT_EQ(t.events.size(), 3u);
    EXPECT_EQ(t.events[0].kind, TraceEvent::Kind::MmapAt);
    EXPECT_EQ(t.events[0].addr, base);
    EXPECT_EQ(t.events[1].addr, base + 0x1000);
    EXPECT_EQ(t.events[2].kind, TraceEvent::Kind::Munmap);
}

TEST(Trace, ReplayReproducesRunExactly)
{
    // Record dedup (churny: exercises mmapAt/munmap/yield paths).
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Agile));
        auto w = makeWorkload("dedup", params);
        recorded = recordRun(m, *w);
    }
    ASSERT_GT(recorded.trace.events.size(), 0u);

    // Replay on a fresh, identically configured machine.
    Machine m2(testConfig(VirtMode::Agile));
    TraceReplayWorkload replay(recorded.trace);
    RunResult replayed = m2.run(replay);

    EXPECT_EQ(replayed.tlbMisses, recorded.result.tlbMisses);
    EXPECT_EQ(replayed.walks, recorded.result.walks);
    EXPECT_EQ(replayed.walkCycles, recorded.result.walkCycles);
    EXPECT_EQ(replayed.trapCycles, recorded.result.trapCycles);
    EXPECT_EQ(replayed.guestPageFaults,
              recorded.result.guestPageFaults);
}

TEST(Trace, WritesV2ByDefault)
{
    Trace t;
    t.workload = "v2";
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Access, 0x1000, 0, 0, false, false});
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(t, ss));
    EXPECT_EQ(ss.str().substr(0, 8), "APTRACE2");
}

/** A synthetic trace mixing runs, control events, and fetches, with
 *  the warmup boundary landing mid-run. */
Trace
mixedTrace()
{
    Trace t;
    t.workload = "mixed";
    t.seed = 5;
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::MmapAt, 0x40000, 0x40000, 0, true,
                   false});
    for (int i = 0; i < 100; ++i) {
        TraceEvent e;
        if (i % 7 == 3) {
            e.kind = TraceEvent::Kind::InstrFetch;
            e.addr = 0x40000 + i * 64;
        } else {
            e.kind = TraceEvent::Kind::Access;
            e.addr = 0x40000 + i * 8;
            e.flag = (i % 3) == 0;
        }
        t.events.push_back(e);
    }
    t.events.push_back(
        TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});
    for (int i = 0; i < 50; ++i) {
        t.events.push_back(TraceEvent{TraceEvent::Kind::Access,
                                      Addr(0x48000 + i * 16), 0, 0,
                                      i % 2 == 0, false});
    }
    t.warmupEvents = 60; // mid-run boundary
    return t;
}

TEST(CompiledTrace, CompileDecompileIsExact)
{
    Trace t = mixedTrace();
    CompiledTrace c = compileTrace(t);
    EXPECT_EQ(c.eventCount, t.events.size());
    EXPECT_EQ(c.warmupEvents, t.warmupEvents);
    // The boundary falls between ops: warmup-op prefix covers exactly
    // warmupEvents events.
    std::uint64_t prefix = 0;
    for (std::uint64_t o = 0; o < c.warmupOps; ++o) {
        prefix += c.ops[o].kind == TraceEvent::Kind::Access
                      ? c.ops[o].n
                      : 1;
    }
    EXPECT_EQ(prefix, c.warmupEvents);

    Trace back = decompileTrace(c);
    EXPECT_EQ(back.workload, t.workload);
    EXPECT_EQ(back.seed, t.seed);
    EXPECT_EQ(back.warmupEvents, t.warmupEvents);
    ASSERT_EQ(back.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(back.events[i], t.events[i]) << "event " << i;
}

TEST(CompiledTrace, SplitsRunsAtCap)
{
    Trace t;
    t.workload = "big";
    const std::uint64_t n = kMaxRunEvents + 17;
    for (std::uint64_t i = 0; i < n; ++i) {
        t.events.push_back(TraceEvent{TraceEvent::Kind::Access,
                                      Addr(0x1000 + i * 8), 0, 0, false,
                                      false});
    }
    CompiledTrace c = compileTrace(t);
    ASSERT_EQ(c.ops.size(), 2u);
    EXPECT_EQ(c.ops[0].n, kMaxRunEvents);
    EXPECT_EQ(c.ops[1].n, 17u);
    Trace back = decompileTrace(c);
    ASSERT_EQ(back.events.size(), n);
    EXPECT_EQ(back.events[n - 1], t.events[n - 1]);
}

TEST(CompiledTrace, V2FileRoundTrip)
{
    Trace t = mixedTrace();
    CompiledTrace c = compileTrace(t);
    std::string path = ::testing::TempDir() + "ap_trace_v2.bin";
    ASSERT_TRUE(writeCompiledTraceFile(c, path));
    CompiledTrace back;
    ASSERT_TRUE(readCompiledTraceFile(path, back));
    EXPECT_EQ(back.workload, c.workload);
    EXPECT_EQ(back.warmupOps, c.warmupOps);
    Trace expanded = decompileTrace(back);
    ASSERT_EQ(expanded.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i)
        EXPECT_EQ(expanded.events[i], t.events[i]);
    std::remove(path.c_str());
}

TEST(CompiledTrace, RejectsEveryTruncation)
{
    // Every proper prefix of a valid file is refused without throwing.
    std::stringstream ss;
    ASSERT_TRUE(writeTrace(mixedTrace(), ss));
    const std::string bytes = ss.str();
    {
        std::stringstream whole(bytes);
        CompiledTrace c;
        ASSERT_TRUE(readCompiledTrace(whole, c));
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::stringstream prefix(bytes.substr(0, len));
        CompiledTrace c;
        bool loaded = true;
        EXPECT_NO_THROW(loaded = readCompiledTrace(prefix, c))
            << "prefix " << len;
        EXPECT_FALSE(loaded) << "prefix " << len << " of " << bytes.size();
    }
}

TEST(CompiledTrace, BatchReplayMatchesEventReplay)
{
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Shadow));
        auto w = makeWorkload("gcc", params); // instr-fetch heavy
        recorded = recordRun(m, *w);
    }
    auto compiled = std::make_shared<const CompiledTrace>(
        compileTrace(recorded.trace));

    Machine m_event(testConfig(VirtMode::Shadow));
    TraceReplayWorkload event_replay(recorded.trace);
    RunResult by_event = m_event.run(event_replay);

    Machine m_batch(testConfig(VirtMode::Shadow));
    BatchReplayWorkload batch_replay(compiled, true);
    RunResult by_batch = m_batch.run(batch_replay);

    EXPECT_EQ(by_batch.instructions, by_event.instructions);
    EXPECT_EQ(by_batch.idealCycles, by_event.idealCycles);
    EXPECT_EQ(by_batch.walkCycles, by_event.walkCycles);
    EXPECT_EQ(by_batch.trapCycles, by_event.trapCycles);
    EXPECT_EQ(by_batch.tlbMisses, by_event.tlbMisses);
    EXPECT_EQ(by_batch.walks, by_event.walks);
    EXPECT_EQ(by_batch.traps, by_event.traps);
    EXPECT_EQ(by_batch.guestPageFaults, by_event.guestPageFaults);
}

TEST(Trace, OneTraceManyTechniques)
{
    // The paper's trace-driven idea: capture once, evaluate each
    // technique on the identical event stream.
    WorkloadParams params = testParams();
    RecordedRun recorded;
    {
        Machine m(testConfig(VirtMode::Nested));
        auto w = makeWorkload("mcf", params);
        recorded = recordRun(m, *w);
    }

    std::uint64_t misses[3];
    int i = 0;
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
        Machine m(testConfig(mode));
        TraceReplayWorkload replay(recorded.trace);
        RunResult r = m.run(replay);
        EXPECT_GT(r.walks, 0u);
        misses[i++] = r.tlbMisses;
    }
    // The address stream is identical, so miss counts are close (they
    // differ only via shadow-side flush effects).
    EXPECT_EQ(misses[0], recorded.result.tlbMisses);
}

} // namespace
} // namespace ap
