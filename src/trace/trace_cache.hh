/**
 * @file
 * Record-once/replay-many trace cache for the evaluation matrix.
 *
 * Cells of the matrix that differ only in MMU mode issue byte-
 * identical operation streams: the stream is a pure function of
 * (workload, page size, operations, seed, footprint, warmup
 * fraction). The TraceCache memoizes each unique stream — the first
 * cell to ask records it through TraceRecorder and keeps its own
 * RunResult; every later cell replays the shared compiled trace
 * through the batched fast path. First-wins memoization is
 * thread-safe under the parallel_runner pool: losers of the insert
 * race block on a shared_future until the winner's recording lands.
 * With a directory, compiled traces also persist as APTRACE2 files
 * that a later process loads instead of recording. CellEngine bundles
 * it with the snapshot cache into the one way the benches, tools and
 * service run a cell.
 */

#ifndef AGILEPAGING_TRACE_TRACE_CACHE_HH
#define AGILEPAGING_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine_pool.hh"
#include "sim/snapshot.hh"
#include "trace/compiled_trace.hh"

namespace ap
{

/** Everything the operation stream depends on. Mode is absent by
 *  design — that is the whole point of sharing. */
struct TraceCacheKey
{
    std::string workload;
    PageSize pageSize = PageSize::Size4K;
    std::uint64_t operations = 0;
    std::uint64_t seed = 0;
    std::uint64_t footprintBytes = 0;
    double warmupFraction = 0.0;

    bool
    operator==(const TraceCacheKey &o) const
    {
        return workload == o.workload && pageSize == o.pageSize &&
               operations == o.operations && seed == o.seed &&
               footprintBytes == o.footprintBytes &&
               warmupFraction == o.warmupFraction;
    }
};

struct TraceCacheKeyHash
{
    std::size_t
    operator()(const TraceCacheKey &k) const
    {
        std::size_t h = std::hash<std::string>{}(k.workload);
        auto mix = [&h](std::uint64_t v) {
            h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ull +
                 (h << 6) + (h >> 2);
        };
        mix(static_cast<std::uint64_t>(k.pageSize));
        mix(k.operations);
        mix(k.seed);
        mix(k.footprintBytes);
        mix(std::hash<double>{}(k.warmupFraction));
        return h;
    }
};

/**
 * Thread-safe first-wins memo of compiled traces. One instance per
 * matrix run; drop it to release the traces. With a directory set,
 * traces additionally persist as <hex-key>.aptrace files (APTRACE2)
 * that later processes load instead of recording; a file that does
 * not parse is ignored and the trace recorded (and written) again.
 */
class TraceCache
{
  public:
    using TracePtr = std::shared_ptr<const CompiledTrace>;
    using RecordFn = std::function<TracePtr()>;

    TraceCache() = default;
    /** @param dir existing directory for .aptrace persistence. */
    explicit TraceCache(std::string dir) : dir_(std::move(dir)) {}

    /**
     * Return the compiled trace for @p key, invoking @p record to
     * produce it if this is the first request and the directory holds
     * no readable copy. Concurrent requests for the same key run
     * @p record at most once; the others block until it completes. An
     * exception from @p record propagates to every blocked requester
     * (and the caller).
     */
    TracePtr obtain(const TraceCacheKey &key, const RecordFn &record);

    /** Keys recorded in-process (cache misses). */
    std::uint64_t records() const;
    /** Cells that reused a trace already in memory (cache hits). */
    std::uint64_t replays() const;
    /** Keys loaded from the directory. */
    std::uint64_t diskLoads() const;

  private:
    std::string filePath(const TraceCacheKey &key) const;

    mutable std::mutex mu_;
    std::unordered_map<TraceCacheKey, std::shared_future<TracePtr>,
                       TraceCacheKeyHash>
        map_;
    std::string dir_;
    std::uint64_t records_ = 0;
    std::uint64_t replays_ = 0;
    std::uint64_t disk_loads_ = 0;
};

/** The trace-cache key of a cell named @p workload_name. */
TraceCacheKey traceCacheKey(const std::string &workload_name,
                            const WorkloadParams &params,
                            const SimConfig &cfg);

/**
 * Run one cell through the trace cache: the first cell per key records
 * (and returns its own fresh-run result — no replay cost), later cells
 * replay the shared trace on their own Machine. Results are
 * bit-identical to runExperiment for every cell.
 * @param batched false = per-event replay (A/B verification)
 */
RunResult runCellCached(TraceCache &cache,
                        const std::string &workload_name,
                        const WorkloadParams &params,
                        const SimConfig &cfg, bool batched = true);

/**
 * Run one cell through both caches: the trace cache dedupes the
 * operation stream across cells (as runCellCached), and the snapshot
 * cache dedupes the *warm machine state* across cells whose full
 * config matches. The first cell per snapshot key replays warmup once
 * and freezes the machine at the measurement boundary; every later
 * identical cell forks a fresh Machine from the frozen image and runs
 * only the measured region. Results are bit-identical to
 * runExperiment for every cell.
 * @param pool optional source of fork machines (counts them); without
 *        one each fork constructs its Machine directly. Results are
 *        bit-identical either way.
 */
RunResult runCellSnapshotted(TraceCache &traces, SnapshotCache &snaps,
                             const std::string &workload_name,
                             const WorkloadParams &params,
                             const SimConfig &cfg, bool batched = true,
                             MachinePool *pool = nullptr);

/**
 * The one way to run cells: a trace cache and a snapshot cache, with
 * every cell going through both (batched replay). Results are
 * bit-identical to runExperiment for every cell. Safe to call
 * concurrently.
 *
 * With a directory, both caches persist there (APTRACE2 traces next
 * to APSNAP images), and a recording cell also captures its warm
 * image at the measurement boundary, so a second engine over the same
 * directory records nothing and forks every cell. Without one the
 * recorder captures nothing: the image would only serve a later cell
 * of the very same config.
 */
class CellEngine
{
  public:
    /**
     * @param snapshot_dir existing directory both caches persist to
     *        ("" = memory only)
     * @param snapshot_budget_bytes resident snapshot image budget
     *        (0 = unlimited)
     */
    explicit CellEngine(std::string snapshot_dir = "",
                        std::uint64_t snapshot_budget_bytes = 0);

    /** One matrix cell. */
    RunResult run(const ExperimentSpec &spec);

    /** A registry workload under a caller-edited config. */
    RunResult run(const std::string &workload_name,
                  const WorkloadParams &params, const SimConfig &cfg);

    /**
     * A caller-supplied workload instance (one the registry cannot
     * build — e.g. a bench-local synthetic workload or a
     * ConsolidatedWorkload) on the caller's freshly constructed
     * @p machine, whose config is the cell's. The cell runs on that
     * machine, whichever way it ends (record, warm, or fork), so the
     * caller can read its stats tree and walk trace afterwards.
     * @p cache_name keys the caches and must uniquely identify the
     * workload's behavior beyond its params (encode any extra knobs in
     * it). Only the first caller per trace key steps @p workload;
     * later calls replay the recorded stream and ignore it.
     */
    RunResult run(const std::string &cache_name, Workload &workload,
                  Machine &machine);

    /** runExperiments over the engine: results in spec order. */
    std::vector<RunResult> runAll(const std::vector<ExperimentSpec> &specs,
                                  unsigned jobs);

    const TraceCache &traces() const { return traces_; }
    const SnapshotCache &snapshots() const { return snaps_; }

  private:
    TraceCache traces_;
    SnapshotCache snaps_;
};

} // namespace ap

#endif // AGILEPAGING_TRACE_TRACE_CACHE_HH
