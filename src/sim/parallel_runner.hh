/**
 * @file
 * Parallel experiment engine: a thread-pool work queue that fans
 * independent simulation cells across worker threads.
 *
 * Every cell of the evaluation matrix is an isolated Machine with its
 * own physical memory, caches, and RNG stream seeded from the cell's
 * WorkloadParams, so cells share no mutable state and parallel results
 * are bit-identical to serial ones. Results are collected into their
 * original index slots, so output order is independent of scheduling.
 */

#ifndef AGILEPAGING_SIM_PARALLEL_RUNNER_HH
#define AGILEPAGING_SIM_PARALLEL_RUNNER_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/experiment.hh"

namespace ap
{

/**
 * Resolve a --jobs request: 0 means "one worker per hardware thread".
 * @return at least 1.
 */
unsigned effectiveJobs(unsigned requested);

/**
 * Run @p fn(i) for every i in [0, n), fanned across up to @p jobs
 * worker threads pulling indices from a shared queue.
 *
 * @p fn must be safe to call concurrently for distinct indices; each
 * index is claimed by exactly one worker. jobs <= 1 (or n <= 1) runs
 * inline on the calling thread — the exact serial path.
 *
 * The first exception thrown by any fn(i) is rethrown on the calling
 * thread after all workers have drained.
 */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn &&fn)
{
    jobs = effectiveJobs(jobs);
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                // Drain the queue so the other workers stop early.
                next.store(n, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::size_t workers = std::min<std::size_t>(jobs, n);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (error)
        std::rethrow_exception(error);
}

/**
 * Group @p specs by operation stream: cells with the same workload,
 * page size and operation count issue the same stream (the spec
 * fields a TraceCacheKey is built from). @return for each cell the
 * index of the first cell of its group.
 */
std::vector<std::size_t>
streamGroups(const std::vector<ExperimentSpec> &specs);

/**
 * Run every cell of @p specs with up to @p jobs workers. The first
 * cell of each stream group is dispatched before any sibling, so
 * under a trace cache the recorders start first and siblings do not
 * hold workers waiting on a recording that has not begun.
 * @param cell per-cell runner override (empty = runExperiment); must
 *        be safe to call concurrently for distinct cells
 * @return results in spec order, bit-identical to running serially.
 */
std::vector<RunResult>
runExperiments(const std::vector<ExperimentSpec> &specs, unsigned jobs,
               const CellFn &cell = {});

/**
 * Map @p fn over [0, n) in parallel, collecting return values in index
 * order. @p fn must be safe to call concurrently for distinct indices.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, unsigned jobs, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    std::vector<decltype(fn(std::size_t{0}))> results(n);
    parallelFor(n, jobs, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

} // namespace ap

#endif // AGILEPAGING_SIM_PARALLEL_RUNNER_HH
