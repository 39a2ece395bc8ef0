/**
 * @file
 * The apsimd service server: a pre-forked worker fleet behind a
 * Unix/TCP socket.
 *
 * start() binds the socket and forks the workers — it must run before
 * the hosting process creates any threads, because fork() from a
 * multithreaded process can inherit a locked allocator. serve() then
 * runs the single-threaded dispatch loop (it may itself run on a
 * thread): accept a client, read batch requests, validate them against
 * SimConfig, shard the cells across the worker fleet through the
 * CellRouter, and stream one RunFrame back per finished cell.
 *
 * Lifecycle: requestStop() (async-signal-safe; wired to SIGTERM by
 * apsimd) makes serve() finish the in-flight batch, close the worker
 * request pipes — each worker drains and exits on EOF — reap them, and
 * return. A worker that dies mid-cell is removed from placement and
 * its cell retried on a sibling; a cell that keeps killing workers is
 * answered with an Error frame instead of looping forever.
 */

#ifndef AGILEPAGING_SERVICE_SERVER_HH
#define AGILEPAGING_SERVICE_SERVER_HH

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "service/router.hh"
#include "service/worker.hh"
#include "service/wire.hh"

namespace ap
{
namespace service
{

struct ServiceOptions
{
    /** Unix socket path; takes precedence over tcpPort when set. */
    std::string socketPath;
    /** Loopback TCP port (0 with an empty socketPath = ephemeral). */
    int tcpPort = 0;
    /** Worker processes to pre-fork. */
    unsigned workers = 4;
    /** Per-worker SnapshotCache byte budget (0 = unlimited). */
    std::uint64_t snapshotPoolBytes = 0;
    /** Crash retries per cell before it is answered with an error. */
    unsigned maxCellRetries = 1;
};

struct ServiceStats
{
    std::uint64_t batches = 0;
    std::uint64_t cells = 0;
    std::uint64_t cellErrors = 0;
    std::uint64_t rejectedBatches = 0;
    std::uint64_t workerCrashes = 0;
    std::uint64_t cellRetries = 0;
    std::uint64_t affinityHits = 0;
    std::uint64_t steals = 0;
};

class ServiceServer
{
  public:
    explicit ServiceServer(ServiceOptions opt);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind + listen + fork the workers. Call from a single-threaded
     * process. @return false with @p err set on any setup failure
     * (the object is then unusable).
     */
    bool start(std::string *err = nullptr);

    /** Dispatch loop; returns after requestStop() + drain, or after a
     *  client Shutdown frame. */
    void serve();

    /** Async-signal-safe stop request (writes the self-pipe). */
    void requestStop();

    /** Bound TCP port (valid after start() when listening on TCP). */
    int port() const { return port_; }

    /** Worker process ids (test hook: crash injection). */
    const std::vector<pid_t> &workerPids() const { return pids_; }

    const ServiceStats &stats() const { return stats_; }

  private:
    struct WorkerProc
    {
        pid_t pid = -1;
        int request_fd = -1; // dispatcher writes CellRequests
        int result_fd = -1;  // dispatcher reads CellResults
        bool alive = false;
        bool busy = false;
        RoutedCell inflight;
    };

    /** One in-progress batch (the server runs one at a time). */
    struct Batch
    {
        std::uint64_t id = 0;
        std::vector<ExperimentSpec> specs;
        std::vector<unsigned> crashes; // per-cell crash count
        std::vector<bool> done;        // per-cell answered flag
        std::size_t outstanding = 0;
        std::uint32_t errors = 0;
        bool active = false;
    };

    bool bindListen(std::string *err);
    bool forkWorkers(std::string *err);
    void handleConnection();
    bool handleClientFrame(const Frame &frame);
    void runBatch();
    void dispatchIdleWorkers();
    bool dispatchCell(unsigned w, const RoutedCell &cell);
    void handleWorkerResult(unsigned w);
    void handleWorkerDeath(unsigned w);
    void failCell(std::uint32_t cell, const std::string &why);
    void failOutstanding(const std::string &why);
    void sendToClient(FrameType type, const std::string &payload);
    void shutdownWorkers();
    bool stopRequested();

    ServiceOptions opt_;
    int listen_fd_ = -1;
    int conn_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    int port_ = 0;
    bool stopping_ = false;
    bool client_gone_ = false;
    std::vector<WorkerProc> workers_;
    std::vector<pid_t> pids_;
    CellRouter router_;
    Batch batch_;
    std::uint64_t next_batch_id_ = 0;
    ServiceStats stats_;
};

} // namespace service
} // namespace ap

#endif // AGILEPAGING_SERVICE_SERVER_HH
