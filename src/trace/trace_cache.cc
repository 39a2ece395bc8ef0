/**
 * @file
 * Trace cache implementation.
 */

#include "trace/trace_cache.hh"

#include <cstdio>
#include <cstring>
#include <optional>

#include "base/logging.hh"
#include "sim/parallel_runner.hh"
#include "trace/buffer_pool.hh"
#include "trace/record.hh"

namespace ap
{

TraceCache::TracePtr
TraceCache::obtain(const TraceCacheKey &key, const RecordFn &record)
{
    std::promise<TracePtr> promise;
    std::shared_future<TracePtr> fut;
    bool winner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            winner = true;
            fut = promise.get_future().share();
            map_.emplace(key, fut);
        } else {
            fut = it->second;
            ++replays_;
        }
    }
    if (winner) {
        // Load or record outside the lock: distinct keys run
        // concurrently, and only same-key requesters wait.
        try {
            TracePtr trace;
            if (!dir_.empty()) {
                auto loaded = std::make_shared<CompiledTrace>();
                if (readCompiledTraceFile(filePath(key), *loaded) &&
                    loaded->workload == key.workload &&
                    loaded->seed == key.seed)
                    trace = std::move(loaded);
            }
            const bool from_disk = trace != nullptr;
            if (!from_disk)
                trace = record();
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++(from_disk ? disk_loads_ : records_);
            }
            if (!dir_.empty() && !from_disk)
                writeCompiledTraceFile(*trace, filePath(key)); // best effort
            promise.set_value(std::move(trace));
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return fut.get();
}

std::string
TraceCache::filePath(const TraceCacheKey &key) const
{
    // Stable (cross-process) key digest, unlike TraceCacheKeyHash
    // whose std::hash mixing is implementation-defined.
    std::uint64_t warmup_bits = 0;
    std::memcpy(&warmup_bits, &key.warmupFraction, sizeof(warmup_bits));
    const std::uint64_t words[5] = {
        static_cast<std::uint64_t>(key.pageSize), key.operations,
        key.seed, key.footprintBytes, warmup_bits};
    std::uint64_t h = fnv1a(key.workload.data(), key.workload.size());
    h = fnv1a(words, sizeof(words), h);
    char name[17];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + name + ".aptrace";
}

std::uint64_t
TraceCache::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

std::uint64_t
TraceCache::replays() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return replays_;
}

std::uint64_t
TraceCache::diskLoads() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return disk_loads_;
}

TraceCacheKey
traceCacheKey(const std::string &workload_name,
              const WorkloadParams &params, const SimConfig &cfg)
{
    return {workload_name, cfg.pageSize, params.operations,
            params.seed, params.footprintBytes, cfg.warmupFraction};
}

namespace
{

/**
 * The one cell body. The trace cache's first requester per key records
 * @p workload (the registry's @p name when null) and its run is the
 * answer; with a persistent @p snaps it also captures its warm image
 * at the measurement boundary. Every other cell replays the shared
 * trace: from scratch when @p snaps is null; else the snapshot cache's
 * first requester per full config warms a machine, captures it and
 * finishes its own run on it, and later cells fork the frozen image
 * into a machine leased from @p pool (or a new one when @p pool is
 * null). A non-null @p machine is the caller's fresh machine of
 * config @p cfg, and the cell runs on it whichever way it ends.
 */
RunResult
runCell(TraceCache &traces, SnapshotCache *snaps, MachinePool *pool,
        const std::string &name, const WorkloadParams &params,
        const SimConfig &cfg, Workload *workload, Machine *machine,
        bool batched)
{
    std::unique_ptr<Machine> owned;
    auto cellMachine = [&]() -> Machine & {
        return machine ? *machine
                       : *(owned = std::make_unique<Machine>(cfg));
    };
    SnapshotKey skey;
    if (snaps)
        skey = {name, params.operations, params.seed,
                params.footprintBytes, simConfigDigest(cfg)};

    // Set only if this call won the recording race: the recording run
    // is a complete measured run of this very cell, so its result is
    // the answer and a replay would be redundant.
    std::optional<RunResult> recorded;
    TraceCache::TracePtr compiled =
        traces.obtain(traceCacheKey(name, params, cfg), [&] {
            std::unique_ptr<Workload> made;
            if (!workload) {
                made = makeWorkload(name, params);
                ap_assert(made != nullptr, "unknown workload ", name);
                workload = made.get();
            }
            Machine &m = cellMachine();
            RecordedRun rec = recordRun(m, *workload, [&] {
                if (snaps && snaps->persistent())
                    snaps->obtain(skey, [&] { return captureSnapshot(m); });
            });
            recorded = rec.result;
            rec.trace.workload = name;
            auto t = std::make_shared<const CompiledTrace>(
                compileTrace(rec.trace));
            recycleTrace(std::move(rec.trace));
            return t;
        });
    if (recorded)
        return *recorded;

    RunResult r;
    if (!snaps) {
        BatchReplayWorkload replay(compiled, batched);
        r = cellMachine().run(replay);
    } else {
        // Kept outside the capture lambda: the capture winner finishes
        // its run on the machine it just warmed (the snapshot future
        // is fulfilled as soon as capture completes, so same-key
        // waiters are not held through this cell's measured region).
        Machine *warm = nullptr;
        std::unique_ptr<BatchReplayWorkload> warm_replay;
        SnapshotPtr snap = snaps->obtain(skey, [&] {
            warm = &cellMachine();
            warm_replay =
                std::make_unique<BatchReplayWorkload>(compiled, batched);
            warm->runWarmup(*warm_replay);
            return captureSnapshot(*warm);
        });
        if (warm) {
            r = warm->runMeasured(*warm_replay);
        } else {
            MachinePool::Lease lease;
            Machine &m = machine || !pool ? cellMachine()
                                          : *(lease = pool->acquire(cfg));
            bool ok = restoreSnapshot(*snap, m);
            ap_assert(ok, "snapshot restore failed for ", name);
            BatchReplayWorkload replay(compiled, batched);
            replay.resumeAtBoundary(m);
            r = m.runMeasured(replay);
        }
    }
    // The replay runs under the cell's own config; only the reporting
    // name ("replay:<wl>") needs restoring for matrix consumers.
    r.workload = compiled->workload;
    return r;
}

} // namespace

RunResult
runCellCached(TraceCache &cache, const std::string &workload_name,
              const WorkloadParams &params, const SimConfig &cfg,
              bool batched)
{
    return runCell(cache, nullptr, nullptr, workload_name, params, cfg,
                   nullptr, nullptr, batched);
}

RunResult
runCellSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                   const std::string &workload_name,
                   const WorkloadParams &params, const SimConfig &cfg,
                   bool batched, MachinePool *pool)
{
    return runCell(traces, &snaps, pool, workload_name, params, cfg,
                   nullptr, nullptr, batched);
}

CellEngine::CellEngine(std::string snapshot_dir,
                       std::uint64_t snapshot_budget_bytes)
    : traces_(snapshot_dir), snaps_(std::move(snapshot_dir))
{
    snaps_.setByteBudget(snapshot_budget_bytes);
}

RunResult
CellEngine::run(const ExperimentSpec &spec)
{
    ResolvedSpec r = resolveSpec(spec);
    return run(spec.workload, r.params, r.cfg);
}

RunResult
CellEngine::run(const std::string &workload_name,
                const WorkloadParams &params, const SimConfig &cfg)
{
    return runCell(traces_, &snaps_, nullptr, workload_name, params, cfg,
                   nullptr, nullptr, true);
}

RunResult
CellEngine::run(const std::string &cache_name, Workload &workload,
                Machine &machine)
{
    return runCell(traces_, &snaps_, nullptr, cache_name,
                   workload.params(), machine.config(), &workload,
                   &machine, true);
}

std::vector<RunResult>
CellEngine::runAll(const std::vector<ExperimentSpec> &specs,
                   unsigned jobs)
{
    return runExperiments(specs, jobs, [this](const ExperimentSpec &spec) {
        return run(spec);
    });
}

} // namespace ap
