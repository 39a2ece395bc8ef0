/**
 * @file
 * Cell lists and runners of the benchmark harness.
 */

#include "cells.hh"

#include <memory>
#include <optional>

#include "base/logging.hh"
#include "harness.hh"
#include "trace/buffer_pool.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"

namespace perfbench
{

using ap::ExperimentSpec;
using ap::Machine;
using ap::RunResult;

std::vector<ExperimentSpec>
figure5Cells()
{
    return ap::figure5Specs(kCellOps);
}

std::vector<ExperimentSpec>
coherenceCells()
{
    // Workload innermost: the three recording cells come first, so two
    // threads record side by side instead of one waiting on the other.
    std::vector<ExperimentSpec> cells;
    for (ap::TlbCoherence coh :
         {ap::TlbCoherence::Software, ap::TlbCoherence::Hardware}) {
        for (ap::VirtMode mode : {ap::VirtMode::Nested, ap::VirtMode::Shadow,
                                  ap::VirtMode::Agile}) {
            for (const char *wl :
                 {"shootdown_storm", "reclaim_scan", "page_migration"}) {
                ExperimentSpec s;
                s.workload = wl;
                s.mode = mode;
                s.operations = kCellOps;
                s.numVcpus = 4;
                s.tlbCoherence = coh;
                cells.push_back(s);
            }
        }
    }
    return cells;
}

ap::WorkloadParams
cellParams(const ExperimentSpec &spec, std::uint64_t seed)
{
    ap::WorkloadParams p = ap::defaultParamsFor(spec.workload);
    if (spec.operations)
        p.operations = spec.operations;
    p.seed = seed;
    return p;
}

ap::SimConfig
cellConfig(const ExperimentSpec &spec, const ap::WorkloadParams &params)
{
    ap::SimConfig cfg =
        ap::configFor(spec.mode, spec.pageSize, params, spec.hwOpts);
    cfg.numVcpus = spec.numVcpus;
    cfg.tlbCoherence = spec.tlbCoherence;
    return cfg;
}

namespace
{

std::unique_ptr<ap::Workload>
makeCellWorkload(const ExperimentSpec &spec, const ap::WorkloadParams &p)
{
    auto w = ap::makeWorkload(spec.workload, p);
    ap_assert(w != nullptr, "unknown workload ", spec.workload);
    return w;
}

std::unique_ptr<Machine>
construct(const ap::SimConfig &cfg, std::int64_t id)
{
    Span s("sim.construct", id);
    return std::make_unique<Machine>(cfg);
}

void
teardown(std::unique_ptr<Machine> &m, std::int64_t id)
{
    Span s("sim.teardown", id);
    m.reset();
}

/** runWarmup + runMeasured (== Machine::run), one span each. */
RunResult
warmAndMeasure(Machine &m, ap::Workload &w, std::int64_t id)
{
    {
        Span s("sim.warmup", id);
        m.runWarmup(w);
    }
    Span s("sim.measured", id);
    RunResult r = m.runMeasured(w);
    s.setWork(r.instructions);
    return r;
}

ap::TraceCacheKey
traceKey(const ExperimentSpec &spec, const ap::WorkloadParams &p,
         const ap::SimConfig &cfg)
{
    ap::TraceCacheKey k;
    k.workload = spec.workload;
    k.pageSize = cfg.pageSize;
    k.operations = p.operations;
    k.seed = p.seed;
    k.footprintBytes = p.footprintBytes;
    k.warmupFraction = cfg.warmupFraction;
    return k;
}

/**
 * TraceCache::obtain with runCellCached's recording function, with spans.
 * The span is "trace.wait" for a cell that found (or waited for)
 * another cell's recording and "trace.obtain" for the recorder.
 */
ap::TraceCache::TracePtr
obtainTraced(ap::TraceCache &traces, const ExperimentSpec &spec,
             const ap::WorkloadParams &p, const ap::SimConfig &cfg,
             std::int64_t id, std::optional<RunResult> &recorded)
{
    Span obtain("trace.wait", id);
    return traces.obtain(traceKey(spec, p, cfg), [&] {
        obtain.rename("trace.obtain");
        std::unique_ptr<Machine> m = construct(cfg, id);
        auto w = makeCellWorkload(spec, p);
        ap::RecordedRun rec;
        {
            Span s("trace.record", id);
            s.setWork(p.operations);
            rec = ap::recordRun(*m, *w);
        }
        recorded = rec.result;
        ap::TraceCache::TracePtr t;
        {
            Span s("trace.compile", id);
            t = std::make_shared<const ap::CompiledTrace>(
                ap::compileTrace(rec.trace));
            ap::recycleTrace(std::move(rec.trace));
        }
        teardown(m, id);
        return t;
    });
}

} // namespace

RunResult
runPlain(const ExperimentSpec &spec, std::uint64_t seed, std::int64_t id,
         bool instrumented)
{
    ap::WorkloadParams p = cellParams(spec, seed);
    ap::SimConfig cfg = cellConfig(spec, p);
    if (!instrumented) {
        Machine machine(cfg);
        auto w = makeCellWorkload(spec, p);
        return machine.run(*w);
    }
    Span cell("cell", id);
    std::unique_ptr<Machine> m = construct(cfg, id);
    auto w = makeCellWorkload(spec, p);
    RunResult r = warmAndMeasure(*m, *w, id);
    teardown(m, id);
    return r;
}

RunResult
runCached(ap::TraceCache &traces, const ExperimentSpec &spec,
          std::uint64_t seed, std::int64_t id, bool instrumented)
{
    ap::WorkloadParams p = cellParams(spec, seed);
    ap::SimConfig cfg = cellConfig(spec, p);
    if (!instrumented)
        return ap::runCellCached(traces, spec.workload, p, cfg, true);

    Span cell("cell", id);
    std::optional<RunResult> recorded;
    auto compiled = obtainTraced(traces, spec, p, cfg, id, recorded);
    if (recorded)
        return *recorded;
    std::unique_ptr<Machine> m = construct(cfg, id);
    ap::BatchReplayWorkload replay(compiled, true);
    RunResult r = warmAndMeasure(*m, replay, id);
    r.workload = compiled->workload;
    teardown(m, id);
    return r;
}

RunResult
runSnapshotted(ap::TraceCache &traces, ap::SnapshotCache &snaps,
               ap::MachinePool &pool, const ExperimentSpec &spec,
               std::uint64_t seed, std::int64_t id, bool instrumented)
{
    ap::WorkloadParams p = cellParams(spec, seed);
    ap::SimConfig cfg = cellConfig(spec, p);
    if (!instrumented) {
        return ap::runCellSnapshotted(traces, snaps, spec.workload, p, cfg,
                                      true, &pool);
    }

    Span cell("cell", id);
    std::optional<RunResult> recorded;
    auto compiled = obtainTraced(traces, spec, p, cfg, id, recorded);
    if (recorded)
        return *recorded;

    ap::SnapshotKey skey;
    skey.workload = spec.workload;
    skey.operations = p.operations;
    skey.seed = p.seed;
    skey.footprintBytes = p.footprintBytes;
    skey.configDigest = ap::simConfigDigest(cfg);

    // As in runCellSnapshotted: the capturing cell finishes its run on
    // the machine it warmed; every other cell forks from the image.
    std::unique_ptr<Machine> warm;
    std::unique_ptr<ap::BatchReplayWorkload> warm_replay;
    ap::SnapshotPtr snap;
    {
        Span obtain("sim.snapshot_wait", id);
        snap = snaps.obtain(skey, [&] {
            obtain.rename("sim.snapshot_obtain");
            warm = construct(cfg, id);
            warm_replay =
                std::make_unique<ap::BatchReplayWorkload>(compiled, true);
            {
                Span s("sim.warmup", id);
                warm->runWarmup(*warm_replay);
            }
            Span s("sim.capture", id);
            return ap::captureSnapshot(*warm);
        });
    }

    RunResult r;
    if (warm) {
        Span s("sim.measured", id);
        r = warm->runMeasured(*warm_replay);
        s.setWork(r.instructions);
    } else {
        ap::MachinePool::Lease lease;
        {
            Span s("sim.restore", id);
            lease = pool.acquire(cfg);
            bool ok = ap::restoreSnapshot(*snap, *lease);
            ap_assert(ok, "snapshot restore failed for ", spec.workload);
        }
        ap::BatchReplayWorkload replay(compiled, true);
        {
            Span s("trace.resume", id);
            replay.resumeAtBoundary(*lease);
        }
        {
            Span s("sim.measured", id);
            r = lease->runMeasured(replay);
            s.setWork(r.instructions);
        }
        Span s("sim.teardown", id);
        lease.release();
    }
    r.workload = compiled->workload;
    if (warm)
        teardown(warm, id);
    return r;
}

namespace
{

/** A WorkloadHost with no machine behind it: it counts calls and hands
 *  out fresh address ranges, so only the generator's own work is
 *  timed. */
class CountingHost : public ap::WorkloadHost
{
  public:
    std::uint64_t calls = 0;

    ap::Addr
    mmap(ap::Addr length, bool, bool, std::uint64_t) override
    {
        ++calls;
        ap::Addr base = next_;
        next_ += (length + (2ull << 20) - 1) & ~((2ull << 20) - 1);
        return base;
    }
    bool
    mmapAt(ap::Addr, ap::Addr, bool, bool, std::uint64_t) override
    {
        ++calls;
        return true;
    }
    void munmap(ap::Addr, ap::Addr) override { ++calls; }
    void access(ap::Addr, bool) override { ++calls; }
    void instrFetch(ap::Addr) override { ++calls; }
    void compute(std::uint64_t) override { ++calls; }
    void forkTouchExit(std::uint64_t) override { ++calls; }
    void yield() override { ++calls; }
    void reclaimTick(std::uint64_t) override { ++calls; }
    void sharePagesScan() override { ++calls; }
    ap::Rng &rng() override { return rng_; }

  private:
    ap::Addr next_ = 1ull << 32;
    ap::Rng rng_{12345};
};

} // namespace

std::uint64_t
driveGenerator(const std::string &workload, const ap::WorkloadParams &params)
{
    CountingHost host;
    auto w = ap::makeWorkload(workload, params);
    ap_assert(w != nullptr, "unknown workload ", workload);
    w->init(host);
    w->warmup(host);
    while (w->step(host)) {
    }
    return host.calls;
}

} // namespace perfbench
