/**
 * @file
 * The apsimd worker process: one warm simulation engine per process.
 *
 * A worker owns a persistent CellEngine — its snapshot cache bounded
 * by the service's --snapshot-pool-mb budget — so every cell after
 * the first of an affinity family replays a recorded trace into a
 * machine forked from a warm snapshot. The loop is
 * synchronous — read one CellRequest, simulate, write one CellResult —
 * because the dispatcher never gives a worker more than one
 * outstanding cell.
 */

#ifndef AGILEPAGING_SERVICE_WORKER_HH
#define AGILEPAGING_SERVICE_WORKER_HH

#include <cstdint>

namespace ap
{
namespace service
{

struct WorkerOptions
{
    /** SnapshotCache byte budget (0 = unlimited). */
    std::uint64_t snapshotPoolBytes = 0;
};

/**
 * Run the worker loop on @p request_fd / @p result_fd until a
 * Shutdown frame or EOF on the request pipe.
 * @return process exit code (0 on clean shutdown).
 *
 * Cell failures that surface as exceptions become ok=false
 * CellResults; sticky cache errors reproduce the first failure's text
 * for every later cell of the same key. A panic still aborts the
 * process — the dispatcher treats that as a crash and retries the
 * in-flight cell on a sibling.
 */
int workerMain(int request_fd, int result_fd, const WorkerOptions &opt);

} // namespace service
} // namespace ap

#endif // AGILEPAGING_SERVICE_WORKER_HH
