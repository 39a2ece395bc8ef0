/**
 * @file
 * apsim_client: submit experiment batches to a running apsimd and
 * stream the results.
 *
 * Frames print to stdout as NDJSON (one ap-run-frame-v1 /
 * ap-error-v1 / ap-batch-end-v1 object per line) — pipe through
 * `check_stats_json.py frames` to validate. With --json PATH the
 * client additionally reassembles the streamed run objects, in cell
 * order, into an ap-runs-v1 document byte-compatible with the
 * in-process runner's "runs" array.
 *
 * Usage:
 *   apsim_client --socket /tmp/apsim.sock --figure5
 *   apsim_client --port 40123 --workloads gcc,mcf --modes agile,nested \
 *                --page-sizes 4k --operations 200000 --json out.json
 *   apsim_client --socket /tmp/apsim.sock --shutdown
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "service/client.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"

namespace
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

int
usage()
{
    std::cerr
        << "usage: apsim_client (--socket PATH | --port N)\n"
        << "         [--figure5 | --workloads A,B --modes M,N\n"
        << "          --page-sizes P,Q] [--operations N] [--vcpus N]\n"
        << "         [--json PATH] [--quiet] [--shutdown]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    int port = -1;
    bool figure5 = false;
    bool shutdown = false;
    bool quiet = false;
    std::string json_path;
    std::vector<std::string> workloads;
    std::vector<std::string> modes = {"agile"};
    std::vector<std::string> page_sizes = {"4k"};
    std::uint64_t operations = 0;
    unsigned vcpus = 1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--socket") {
            const char *v = value();
            if (!v)
                return usage();
            socket_path = v;
        } else if (arg == "--port") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !ap::parseU64(v, n) || n > 65535)
                return usage();
            port = static_cast<int>(n);
        } else if (arg == "--figure5") {
            figure5 = true;
        } else if (arg == "--workloads") {
            const char *v = value();
            if (!v)
                return usage();
            workloads = splitCsv(v);
        } else if (arg == "--modes") {
            const char *v = value();
            if (!v)
                return usage();
            modes = splitCsv(v);
        } else if (arg == "--page-sizes") {
            const char *v = value();
            if (!v)
                return usage();
            page_sizes = splitCsv(v);
        } else if (arg == "--operations") {
            const char *v = value();
            if (!v || !ap::parseU64(v, operations))
                return usage();
        } else if (arg == "--vcpus") {
            const char *v = value();
            std::uint64_t n = 0;
            if (!v || !ap::parseU64(v, n) || n == 0 || n > 64)
                return usage();
            vcpus = static_cast<unsigned>(n);
        } else if (arg == "--json") {
            const char *v = value();
            if (!v)
                return usage();
            json_path = v;
        } else if (arg == "--shutdown") {
            shutdown = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            return usage();
        }
    }
    if (socket_path.empty() && port < 0)
        return usage();

    // Specs are checked before connecting, so a bad name exits 2
    // whether or not a daemon is listening.
    std::vector<ap::ExperimentSpec> specs;
    if (figure5) {
        specs = ap::figure5Specs(operations);
    } else if (!shutdown) {
        if (workloads.empty()) {
            std::cerr << "apsim_client: need --figure5 or --workloads\n";
            return usage();
        }
        for (const std::string &wl : workloads) {
            for (const std::string &m : modes) {
                for (const std::string &ps : page_sizes) {
                    ap::ExperimentSpec spec;
                    spec.workload = wl;
                    spec.operations = operations;
                    spec.numVcpus = vcpus;
                    if (!ap::parseVirtMode(m, spec.mode)) {
                        std::cerr << "apsim_client: bad mode " << m
                                  << "\n";
                        return 2;
                    }
                    if (!ap::parsePageSize(ps, spec.pageSize)) {
                        std::cerr << "apsim_client: bad page size "
                                  << ps << "\n";
                        return 2;
                    }
                    specs.push_back(spec);
                }
            }
        }
    }

    ap::service::ServiceClient client;
    std::string err;
    bool ok = socket_path.empty() ? client.connectTcp(port, &err)
                                  : client.connectUnix(socket_path, &err);
    if (!ok) {
        std::cerr << "apsim_client: " << err << "\n";
        return 1;
    }

    if (shutdown) {
        if (!client.sendShutdown()) {
            std::cerr << "apsim_client: shutdown send failed\n";
            return 1;
        }
        return 0;
    }

    std::vector<std::string> runs(specs.size());
    ap::service::BatchOutcome outcome = client.runBatch(
        specs, [&](ap::service::FrameType, const std::string &json) {
            if (!quiet)
                std::cout << json << "\n";
            std::int64_t cell = ap::service::cellOfFrame(json);
            std::string run = ap::service::runObjectOfFrame(json);
            if (cell >= 0 &&
                cell < static_cast<std::int64_t>(runs.size()) &&
                !run.empty())
                runs[static_cast<std::size_t>(cell)] = std::move(run);
        });
    if (!outcome.ok) {
        std::cerr << "apsim_client: batch failed: " << outcome.error
                  << "\n";
        return 1;
    }
    std::cerr << "apsim_client: " << outcome.cells << "/" << specs.size()
              << " cells, " << outcome.errors << " error(s)\n";

    if (!json_path.empty()) {
        bool complete = true;
        for (const std::string &r : runs)
            complete = complete && !r.empty();
        if (!complete) {
            std::cerr << "apsim_client: incomplete batch, not writing "
                      << json_path << "\n";
            return 1;
        }
        std::ofstream out(json_path);
        out << ap::service::assembleRunsJson(runs, 0);
        if (!out) {
            std::cerr << "apsim_client: write failed: " << json_path
                      << "\n";
            return 1;
        }
    }
    return outcome.errors == 0 ? 0 : 1;
}
