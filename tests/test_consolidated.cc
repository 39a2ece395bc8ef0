/**
 * @file
 * Consolidated cells: ConsolidatedWorkload's round-robin interleaving
 * (the Scheduler suite), its numbers pinned against the scheduler it
 * replaced, and consolidated cells through the CellEngine: recording,
 * cross-mode replay and forks (the SchedulerReplay suite).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/snapshot.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace_cache.hh"
#include "workloads/consolidated.hh"

namespace ap
{
namespace
{

SimConfig
schedConfig(VirtMode mode, std::size_t sptr = 0)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = 1 << 17;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 16;
    cfg.verifyTranslations = true;
    cfg.sptrCacheEntries = sptr;
    return cfg;
}

WorkloadParams
schedParams(std::uint64_t ops)
{
    WorkloadParams p;
    p.footprintBytes = 8ull << 20;
    p.operations = ops;
    p.seed = 3;
    return p;
}

/** @p a then @p b, one process each, at @p quantum steps a quantum,
 *  warming up schedConfig's fraction. */
std::unique_ptr<ConsolidatedWorkload>
pair(const std::string &a, std::uint64_t ops_a, const std::string &b,
     std::uint64_t ops_b, std::uint64_t quantum)
{
    std::vector<std::unique_ptr<Workload>> slots;
    slots.push_back(makeWorkload(a, schedParams(ops_a)));
    slots.push_back(makeWorkload(b, schedParams(ops_b)));
    return std::make_unique<ConsolidatedWorkload>(
        std::move(slots), quantum, SimConfig{}.warmupFraction);
}

/** The mcf+canneal pair at @p ops each, quantum 1000. */
std::unique_ptr<ConsolidatedWorkload>
mcfCanneal(std::uint64_t ops)
{
    return pair("mcf", ops, "canneal", ops, 1'000);
}

std::uint64_t
countKind(const Trace &t, TraceEvent::Kind kind)
{
    std::uint64_t n = 0;
    for (const TraceEvent &e : t.events)
        n += e.kind == kind;
    return n;
}

void
expectSameResult(const RunResult &x, const RunResult &y)
{
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.idealCycles, y.idealCycles);
    EXPECT_EQ(x.walkCycles, y.walkCycles);
    EXPECT_EQ(x.trapCycles, y.trapCycles);
    EXPECT_EQ(x.tlbMisses, y.tlbMisses);
    EXPECT_EQ(x.walks, y.walks);
    EXPECT_EQ(x.traps, y.traps);
    EXPECT_EQ(x.guestPageFaults, y.guestPageFaults);
    EXPECT_DOUBLE_EQ(x.avgWalkRefs, y.avgWalkRefs);
    for (int c = 0; c < 6; ++c)
        EXPECT_DOUBLE_EQ(x.coverage[c], y.coverage[c]);
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        EXPECT_EQ(x.trapByKind[k], y.trapByKind[k]);
}

RunResult
plainRun(VirtMode mode, std::uint64_t ops)
{
    Machine m(schedConfig(mode));
    return m.run(*mcfCanneal(ops));
}

TEST(Scheduler, RunsAllWorkloadsToCompletion)
{
    Machine m(schedConfig(VirtMode::Agile));
    auto w = pair("mcf", 20'000, "canneal", 30'000, 1'000);
    RecordedRun rec = recordRun(m, *w);
    EXPECT_EQ(w->steps(0), 20'000u);
    EXPECT_EQ(w->steps(1), 30'000u);
    // One process spawned past the first, and a switch per quantum.
    EXPECT_EQ(countKind(rec.trace, TraceEvent::Kind::SpawnProcess), 1u);
    EXPECT_GT(countKind(rec.trace, TraceEvent::Kind::SwitchTo), 10u);
    EXPECT_GT(rec.result.walks, 0u);
}

TEST(Scheduler, DistinctProcessesPerWorkload)
{
    Machine m(schedConfig(VirtMode::Nested));
    auto w = pair("astar", 15'000, "astar", 15'000, 2'000);
    m.run(*w);
    EXPECT_NE(w->pid(0), w->pid(1));
}

TEST(Scheduler, CtxSwitchTrapsUnderShadowNotNested)
{
    auto run = [](VirtMode mode, std::size_t sptr) {
        Machine m(schedConfig(mode, sptr));
        RunResult r = m.run(*pair("mcf", 25'000, "canneal", 25'000, 500));
        return r.trapByKind[std::size_t(TrapKind::CtxSwitch)];
    };
    EXPECT_EQ(run(VirtMode::Nested, 0), 0u);
    std::uint64_t shadow = run(VirtMode::Shadow, 0);
    EXPECT_GT(shadow, 0u);
    // The sptr cache eliminates (nearly) all of them.
    std::uint64_t cached = run(VirtMode::Shadow, 8);
    EXPECT_LT(cached, shadow / 4);
}

TEST(ConsolidatedWorkload, ReproducesSchedulerNumbers)
{
    // Measured by the round-robin Scheduler this workload replaced
    // (mcf+canneal, 12k ops each, quantum 1000). Machine::run must
    // reproduce its interleaving, and so its counters, exactly.
    struct Pinned
    {
        VirtMode mode;
        bool hwOpts;
        std::uint64_t instructions, idealCycles, walkCycles, trapCycles,
            tlbMisses, walks, traps, guestPageFaults, ctxSwitchTraps;
        double avgWalkRefs;
    } pinned[] = {
        {VirtMode::Nested, false, 143250, 143250, 120006, 0, 902, 902, 0,
         0, 0, 4.8625277161862526},
        {VirtMode::Shadow, false, 143250, 143250, 45100, 41800, 902, 902,
         22, 0, 22, 1},
        {VirtMode::Agile, false, 143250, 143250, 45100, 41800, 902, 902,
         22, 0, 22, 1},
        {VirtMode::Agile, true, 143250, 143250, 45100, 0, 902, 902, 0, 0,
         0, 1},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(std::string(virtModeName(p.mode)) +
                     (p.hwOpts ? "+hw" : ""));
        SimConfig cfg = schedConfig(p.mode);
        if (p.hwOpts)
            cfg.enableHwOpts();
        Machine m(cfg);
        RunResult r = m.run(*mcfCanneal(12'000));
        EXPECT_EQ(r.instructions, p.instructions);
        EXPECT_EQ(r.idealCycles, p.idealCycles);
        EXPECT_EQ(r.walkCycles, p.walkCycles);
        EXPECT_EQ(r.trapCycles, p.trapCycles);
        EXPECT_EQ(r.tlbMisses, p.tlbMisses);
        EXPECT_EQ(r.walks, p.walks);
        EXPECT_EQ(r.traps, p.traps);
        EXPECT_EQ(r.guestPageFaults, p.guestPageFaults);
        EXPECT_EQ(r.trapByKind[std::size_t(TrapKind::CtxSwitch)],
                  p.ctxSwitchTraps);
        EXPECT_DOUBLE_EQ(r.avgWalkRefs, p.avgWalkRefs);
    }
}

TEST(SchedulerReplay, RecordingIsTransparent)
{
    RunResult plain = plainRun(VirtMode::Agile, 12'000);

    Machine rec_m(schedConfig(VirtMode::Agile));
    auto w = mcfCanneal(12'000);
    RecordedRun rec = recordRun(rec_m, *w);
    expectSameResult(plain, rec.result);
    EXPECT_GT(rec.trace.events.size(), 12'000u);
    EXPECT_GT(rec.trace.warmupEvents, 0u);
    EXPECT_EQ(rec.trace.workload, w->name());

    // The engine's recording cell is the same run.
    CellEngine engine;
    Machine cell_m(schedConfig(VirtMode::Agile));
    auto cell_w = mcfCanneal(12'000);
    expectSameResult(plain, engine.run(cell_w->name(), *cell_w, cell_m));
    EXPECT_EQ(engine.traces().records(), 1u);
}

TEST(SchedulerReplay, ReplayMatchesPlainRunAcrossModes)
{
    // The nested cell records; the interleaved stream is
    // mode-independent, so shadow and agile replay it and must match
    // their plain runs bit for bit.
    CellEngine engine;
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
        SCOPED_TRACE(virtModeName(mode));
        Machine m(schedConfig(mode));
        auto w = mcfCanneal(12'000);
        RunResult r = engine.run(w->name(), *w, m);
        EXPECT_EQ(r.workload, w->name());
        expectSameResult(plainRun(mode, 12'000), r);
    }
    EXPECT_EQ(engine.traces().records(), 1u);
    EXPECT_EQ(engine.traces().replays(), 2u);
}

TEST(SchedulerReplay, SnapshotResumeMatchesColdReplay)
{
    // Record, then capture the warm image, then fork from it: the
    // forked consolidated cell matches a plain run.
    RunResult plain = plainRun(VirtMode::Shadow, 12'000);
    CellEngine engine;
    for (int call = 0; call < 3; ++call) {
        SCOPED_TRACE("call " + std::to_string(call));
        Machine m(schedConfig(VirtMode::Shadow));
        auto w = mcfCanneal(12'000);
        expectSameResult(plain, engine.run(w->name(), *w, m));
    }
    EXPECT_EQ(engine.traces().records(), 1u);
    EXPECT_EQ(engine.snapshots().captures(), 1u);
    EXPECT_EQ(engine.snapshots().forks(), 1u);
}

TEST(SchedulerReplay, ResumeRejectsMismatchedConfig)
{
    Machine rec_m(schedConfig(VirtMode::Shadow));
    RecordedRun rec = recordRun(rec_m, *mcfCanneal(8'000));
    auto compiled =
        std::make_shared<const CompiledTrace>(compileTrace(rec.trace));

    Machine warm(schedConfig(VirtMode::Shadow));
    BatchReplayWorkload replay(compiled);
    warm.runWarmup(replay);
    SnapshotPtr snap = captureSnapshot(warm);

    Machine other(schedConfig(VirtMode::Nested));
    EXPECT_FALSE(restoreSnapshot(*snap, other));
}

} // namespace
} // namespace ap
