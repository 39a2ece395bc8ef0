/**
 * @file
 * Service server implementation.
 */

#include "service/server.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"

namespace ap
{
namespace service
{

namespace
{

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

ServiceServer::ServiceServer(ServiceOptions opt)
    : opt_(std::move(opt)),
      router_(opt_.workers ? opt_.workers : 1)
{
    if (opt_.workers == 0)
        opt_.workers = 1;
}

ServiceServer::~ServiceServer()
{
    shutdownWorkers();
    closeFd(conn_fd_);
    closeFd(listen_fd_);
    closeFd(stop_pipe_[0]);
    closeFd(stop_pipe_[1]);
    if (!opt_.socketPath.empty())
        ::unlink(opt_.socketPath.c_str());
}

bool
ServiceServer::bindListen(std::string *err)
{
    if (!opt_.socketPath.empty()) {
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            if (err)
                *err = "socket: " + std::string(std::strerror(errno));
            return false;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
            if (err)
                *err = "socket path too long";
            return false;
        }
        std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(opt_.socketPath.c_str());
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            if (err)
                *err = "bind " + opt_.socketPath + ": " +
                       std::strerror(errno);
            return false;
        }
    } else {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            if (err)
                *err = "socket: " + std::string(std::strerror(errno));
            return false;
        }
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcpPort));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            if (err)
                *err = "bind port " + std::to_string(opt_.tcpPort) +
                       ": " + std::strerror(errno);
            return false;
        }
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &blen);
        port_ = ntohs(bound.sin_port);
    }
    if (::listen(listen_fd_, 8) < 0) {
        if (err)
            *err = "listen: " + std::string(std::strerror(errno));
        return false;
    }
    return true;
}

bool
ServiceServer::forkWorkers(std::string *err)
{
    workers_.resize(opt_.workers);
    for (unsigned w = 0; w < opt_.workers; ++w) {
        int req[2], res[2];
        if (::pipe(req) < 0 || ::pipe(res) < 0) {
            if (err)
                *err = "pipe: " + std::string(std::strerror(errno));
            return false;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            if (err)
                *err = "fork: " + std::string(std::strerror(errno));
            return false;
        }
        if (pid == 0) {
            // Worker child: keep only its own pipe ends. Termination
            // signals are left to the dispatcher — a worker exits when
            // its request pipe drains to EOF.
            ::signal(SIGTERM, SIG_IGN);
            ::signal(SIGINT, SIG_IGN);
            ::close(req[1]);
            ::close(res[0]);
            closeFd(listen_fd_);
            closeFd(stop_pipe_[0]);
            closeFd(stop_pipe_[1]);
            for (unsigned v = 0; v < w; ++v) {
                ::close(workers_[v].request_fd);
                ::close(workers_[v].result_fd);
            }
            WorkerOptions wopt;
            wopt.snapshotPoolBytes = opt_.snapshotPoolBytes;
            // _exit: the child must not run the parent's atexit/static
            // destructors.
            ::_exit(workerMain(req[0], res[1], wopt));
        }
        ::close(req[0]);
        ::close(res[1]);
        workers_[w].pid = pid;
        workers_[w].request_fd = req[1];
        workers_[w].result_fd = res[0];
        workers_[w].alive = true;
        pids_.push_back(pid);
    }
    return true;
}

bool
ServiceServer::start(std::string *err)
{
    // Streaming to a client that vanished must surface as EPIPE, not
    // kill the process.
    ::signal(SIGPIPE, SIG_IGN);
    if (::pipe(stop_pipe_) < 0) {
        if (err)
            *err = "pipe: " + std::string(std::strerror(errno));
        return false;
    }
    if (!bindListen(err))
        return false;
    return forkWorkers(err);
}

void
ServiceServer::requestStop()
{
    if (stop_pipe_[1] >= 0) {
        char byte = 1;
        // Async-signal-safe; a full pipe just means a stop is already
        // pending.
        [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &byte, 1);
    }
}

bool
ServiceServer::stopRequested()
{
    if (stopping_)
        return true;
    pollfd pfd{stop_pipe_[0], POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN)) {
        char buf[16];
        [[maybe_unused]] ssize_t n =
            ::read(stop_pipe_[0], buf, sizeof(buf));
        stopping_ = true;
    }
    return stopping_;
}

void
ServiceServer::serve()
{
    while (!stopRequested()) {
        pollfd fds[2] = {
            {stop_pipe_[0], POLLIN, 0},
            {listen_fd_, POLLIN, 0},
        };
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[0].revents & POLLIN)
            break; // stopRequested() drains it on the next iteration
        if (!(fds[1].revents & POLLIN))
            continue;
        conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
        if (conn_fd_ < 0)
            continue;
        setNoDelay(conn_fd_);
        client_gone_ = false;
        handleConnection();
        closeFd(conn_fd_);
    }
    shutdownWorkers();
}

void
ServiceServer::handleConnection()
{
    while (!stopRequested() && !client_gone_) {
        pollfd fds[2] = {
            {stop_pipe_[0], POLLIN, 0},
            {conn_fd_, POLLIN, 0},
        };
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[0].revents & POLLIN)
            return; // drain handled by serve()/shutdownWorkers
        if (!(fds[1].revents & (POLLIN | POLLHUP)))
            continue;
        Frame frame;
        ReadStatus rs = readFrame(conn_fd_, frame);
        if (rs == ReadStatus::Eof)
            return;
        if (rs == ReadStatus::Broken) {
            // Framing is unrecoverable: tell the client why, then
            // drop the connection.
            sendToClient(FrameType::Error,
                         renderErrorFrame("unrecoverable frame stream"));
            return;
        }
        if (!handleClientFrame(frame))
            return;
    }
}

bool
ServiceServer::handleClientFrame(const Frame &frame)
{
    switch (frame.type) {
      case FrameType::Shutdown:
        stopping_ = true;
        return false;
      case FrameType::BatchRequest: {
        std::vector<ExperimentSpec> specs;
        std::string err;
        if (!decodeBatch(frame.payload, specs, err)) {
            // Malformed *payload*: answer with an error frame and keep
            // the connection — framing is still intact.
            ++stats_.rejectedBatches;
            sendToClient(FrameType::Error, renderErrorFrame(err));
            return true;
        }
        batch_ = Batch{};
        batch_.id = next_batch_id_++;
        batch_.specs = std::move(specs);
        batch_.crashes.assign(batch_.specs.size(), 0);
        batch_.done.assign(batch_.specs.size(), false);
        batch_.outstanding = batch_.specs.size();
        batch_.active = true;
        ++stats_.batches;
        for (std::uint32_t i = 0; i < batch_.specs.size(); ++i)
            router_.enqueue(batch_.id, i,
                            affinityDigest(batch_.specs[i]));
        runBatch();
        return !client_gone_;
      }
      default:
        // Unknown-but-well-framed types get an error frame, and the
        // connection survives.
        sendToClient(FrameType::Error,
                     renderErrorFrame("unexpected frame type"));
        return true;
    }
}

void
ServiceServer::runBatch()
{
    if (router_.liveWorkers() == 0) {
        failOutstanding("no live workers");
        return;
    }
    dispatchIdleWorkers();
    while (batch_.active && batch_.outstanding > 0) {
        std::vector<pollfd> fds;
        std::vector<unsigned> fd_worker;
        fds.push_back({stop_pipe_[0], POLLIN, 0});
        for (unsigned w = 0; w < workers_.size(); ++w) {
            if (!workers_[w].alive)
                continue;
            fds.push_back({workers_[w].result_fd, POLLIN, 0});
            fd_worker.push_back(w);
        }
        if (fds.size() == 1) {
            failOutstanding("no live workers");
            break;
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            failOutstanding("dispatcher poll failed");
            break;
        }
        // A stop request drains the in-flight batch before taking
        // effect, so results keep flowing below.
        for (std::size_t i = 1; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                handleWorkerResult(fd_worker[i - 1]);
        }
        dispatchIdleWorkers();
    }
    std::uint32_t cells = static_cast<std::uint32_t>(batch_.specs.size());
    sendToClient(FrameType::BatchEnd,
                 renderBatchEnd(batch_.id, cells, batch_.errors));
    batch_.active = false;
    stats_.affinityHits = router_.affinityHits();
    stats_.steals = router_.steals();
}

void
ServiceServer::dispatchIdleWorkers()
{
    for (unsigned w = 0; w < workers_.size(); ++w) {
        if (!workers_[w].alive || workers_[w].busy)
            continue;
        if (!router_.alive(w))
            continue;
        std::optional<RoutedCell> cell = router_.next(w);
        if (!cell)
            continue;
        if (!dispatchCell(w, *cell)) {
            // The worker died between poll rounds; its pipe EOF is
            // handled like any other crash and the cell retried.
            handleWorkerDeath(w);
        }
    }
}

bool
ServiceServer::dispatchCell(unsigned w, const RoutedCell &cell)
{
    CellRequest req;
    req.batch = cell.batch;
    req.cell = cell.cell;
    req.spec = batch_.specs[cell.cell];
    workers_[w].inflight = cell;
    workers_[w].busy = true;
    return writeFrame(workers_[w].request_fd, FrameType::CellRequest,
                      encodeCellRequest(req));
}

void
ServiceServer::handleWorkerResult(unsigned w)
{
    Frame frame;
    ReadStatus rs = readFrame(workers_[w].result_fd, frame);
    if (rs != ReadStatus::Ok) {
        handleWorkerDeath(w);
        return;
    }
    CellResult res;
    if (frame.type != FrameType::CellResult ||
        !decodeCellResult(frame.payload, res)) {
        handleWorkerDeath(w);
        return;
    }
    workers_[w].busy = false;
    if (!batch_.active || res.batch != batch_.id)
        return; // stale result from an abandoned batch
    if (batch_.done[res.cell])
        return; // already answered (e.g. a crash-retried duplicate)
    if (res.ok) {
        batch_.done[res.cell] = true;
        sendToClient(FrameType::RunFrame,
                     renderRunFrame(res.batch, res.cell, w, res.run));
        ++stats_.cells;
        --batch_.outstanding;
    } else {
        failCell(res.cell, res.error);
    }
}

void
ServiceServer::handleWorkerDeath(unsigned w)
{
    WorkerProc &wp = workers_[w];
    if (!wp.alive)
        return;
    wp.alive = false;
    ++stats_.workerCrashes;
    closeFd(wp.request_fd);
    closeFd(wp.result_fd);
    ::waitpid(wp.pid, nullptr, 0);
    bool had_inflight = wp.busy;
    RoutedCell inflight = wp.inflight;
    wp.busy = false;
    router_.removeWorker(w);
    if (router_.liveWorkers() == 0) {
        failOutstanding("all workers died");
        return;
    }
    if (had_inflight && batch_.active && inflight.batch == batch_.id) {
        unsigned &crashes = batch_.crashes[inflight.cell];
        ++crashes;
        if (crashes > opt_.maxCellRetries) {
            failCell(inflight.cell,
                     "cell crashed " + std::to_string(crashes) +
                         " worker(s)");
        } else {
            ++stats_.cellRetries;
            router_.enqueue(inflight.batch, inflight.cell,
                            inflight.digest);
        }
    }
}

void
ServiceServer::failCell(std::uint32_t cell, const std::string &why)
{
    if (batch_.done[cell])
        return;
    batch_.done[cell] = true;
    sendToClient(FrameType::Error,
                 renderErrorFrame(why,
                                  static_cast<std::int64_t>(batch_.id),
                                  static_cast<std::int64_t>(cell)));
    ++stats_.cellErrors;
    ++batch_.errors;
    --batch_.outstanding;
}

void
ServiceServer::failOutstanding(const std::string &why)
{
    if (!batch_.active)
        return;
    for (std::uint32_t c = 0; c < batch_.specs.size(); ++c) {
        if (!batch_.done[c])
            failCell(c, why);
    }
}

void
ServiceServer::sendToClient(FrameType type, const std::string &payload)
{
    if (client_gone_ || conn_fd_ < 0)
        return;
    if (!writeFrame(conn_fd_, type, payload))
        client_gone_ = true;
}

void
ServiceServer::shutdownWorkers()
{
    for (WorkerProc &wp : workers_) {
        if (wp.request_fd >= 0)
            writeFrame(wp.request_fd, FrameType::Shutdown, nullptr, 0);
        closeFd(wp.request_fd);
    }
    for (WorkerProc &wp : workers_) {
        if (wp.pid > 0) {
            ::waitpid(wp.pid, nullptr, 0);
            wp.pid = -1;
        }
        closeFd(wp.result_fd);
        wp.alive = false;
    }
    stats_.affinityHits = router_.affinityHits();
    stats_.steals = router_.steals();
}

} // namespace service
} // namespace ap
