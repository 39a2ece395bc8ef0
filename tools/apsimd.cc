/**
 * @file
 * apsimd: the sharded simulation service daemon.
 *
 * Pre-forks a fleet of worker processes — each with a persistent
 * trace cache and a byte-budgeted snapshot pool —
 * binds a Unix or loopback-TCP socket, and serves experiment batches:
 * cells are sharded across the fleet with digest affinity and work
 * stealing, and one ap-run-frame-v1 JSON frame streams back per
 * finished cell. SIGTERM/SIGINT drain the in-flight batch before
 * exiting.
 *
 * Usage:
 *   apsimd --socket /tmp/apsim.sock --workers 4 --snapshot-pool-mb 256
 *   apsimd --port 0 --workers 8   # ephemeral TCP port, printed
 */

#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "base/logging.hh"
#include "service/server.hh"
#include "sim/config.hh"

namespace
{

ap::service::ServiceServer *g_server = nullptr;

void
onTerm(int)
{
    if (g_server)
        g_server->requestStop();
}

int
usage()
{
    std::cerr
        << "usage: apsimd [--socket PATH | --port N] [--workers N]\n"
        << "              [--snapshot-pool-mb N] [--quiet]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::service::ServiceOptions opt;
    opt.socketPath = "";
    opt.tcpPort = -1;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        std::uint64_t n = 0;
        if (arg == "--socket") {
            const char *v = value();
            if (!v)
                return usage();
            opt.socketPath = v;
        } else if (arg == "--port") {
            const char *v = value();
            if (!v || !ap::parseU64(v, n) || n > 65535)
                return usage();
            opt.tcpPort = static_cast<int>(n);
        } else if (arg == "--workers") {
            const char *v = value();
            if (!v || !ap::parseU64(v, n) || n == 0 || n > 256)
                return usage();
            opt.workers = static_cast<unsigned>(n);
        } else if (arg == "--snapshot-pool-mb") {
            const char *v = value();
            // The budget is kept in bytes: N << 20 must not overflow.
            if (!v || !ap::parseU64(v, n) || n >= (1ull << 44))
                return usage();
            opt.snapshotPoolBytes = n << 20;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage();
        }
    }
    if (opt.socketPath.empty() && opt.tcpPort < 0) {
        std::cerr << "apsimd: need --socket PATH or --port N\n";
        return usage();
    }
    if (opt.tcpPort < 0)
        opt.tcpPort = 0;
    ap::setQuietLogging(quiet);

    ap::service::ServiceServer server(opt);
    std::string err;
    if (!server.start(&err)) {
        std::cerr << "apsimd: " << err << "\n";
        return 1;
    }
    g_server = &server;
    std::signal(SIGTERM, onTerm);
    std::signal(SIGINT, onTerm);

    if (!quiet) {
        if (!opt.socketPath.empty())
            std::cerr << "apsimd: listening on " << opt.socketPath;
        else
            std::cerr << "apsimd: listening on 127.0.0.1:"
                      << server.port();
        std::cerr << " with " << opt.workers << " worker(s)\n";
    }
    // Machine-readable endpoint line for wrappers that asked for an
    // ephemeral port.
    if (opt.socketPath.empty())
        std::cout << server.port() << std::endl;

    server.serve();
    g_server = nullptr;

    const ap::service::ServiceStats &st = server.stats();
    if (!quiet) {
        std::cerr << "apsimd: served " << st.batches << " batch(es), "
                  << st.cells << " cell(s), " << st.cellErrors
                  << " error(s); affinity hits " << st.affinityHits
                  << ", steals " << st.steals << ", crashes "
                  << st.workerCrashes << ", retries " << st.cellRetries
                  << "\n";
    }
    return 0;
}
