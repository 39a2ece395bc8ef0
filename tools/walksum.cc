/**
 * @file
 * walksum: offline summarizer for walk-trace files.
 *
 * Usage:
 *   walksum [--top N] [--stats STATS.json] <trace-file> [...]
 *
 * Reads traces produced by `apsim --trace-walks=<path>` (or any driver
 * that calls writeWalkTraceFile) and reconstructs, from the trace
 * alone: the Table VI mode-coverage fractions, the average memory
 * references per TLB miss, per-cause VM-exit attribution, and the
 * top-N hottest walk shapes. When the ring did not wrap (dropped == 0)
 * the coverage fractions are bit-identical to the simulator's own
 * counters for the measured region.
 *
 * Walk traces carry translation events only; with `--stats` pointing
 * at the run's `apsim --stats-json` export, walksum also prints the
 * engine's guest frame-pool counters (recycles and high-water marks)
 * so the observability surfaces travel together.
 *
 * Exit status: 0 on success, 1 if any file could not be read, 2 on
 * bad arguments.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "trace/walk_trace.hh"

namespace
{

const char kUsage[] =
    "usage: walksum [--top N] [--stats STATS.json] <trace-file> "
    "[trace-file ...]\n";

/**
 * Pull one named stat's "value" out of an ap-stats-v1 JSON document.
 * Deliberately a string scan, not a JSON parser: stat names are
 * unique keys in the export and values are plain numbers, which is
 * all the pool counters need. @return false if the name is absent.
 */
bool
extractStatValue(const std::string &doc, const std::string &name,
                 double &value)
{
    std::string::size_type at = doc.find("\"" + name + "\"");
    if (at == std::string::npos)
        return false;
    at = doc.find("\"value\"", at);
    if (at == std::string::npos)
        return false;
    at = doc.find(':', at);
    if (at == std::string::npos)
        return false;
    return std::sscanf(doc.c_str() + at + 1, " %lf", &value) == 1;
}

/** Print the engine pool counters recorded in @p stats_path. */
void
printPoolCounters(std::ostream &os, const std::string &stats_path)
{
    std::ifstream in(stats_path);
    if (!in) {
        std::cerr << stats_path << ": cannot read stats JSON\n";
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();

    static const struct
    {
        const char *name;
        const char *label;
    } kCounters[] = {
        {"guest_pt_frame_recycles", "guest PT frame recycles"},
        {"guest_pt_frame_high_water", "peak guest PT frames"},
        {"guest_data_frame_recycles", "guest data frame recycles"},
        {"guest_data_frame_high_water", "peak guest data frames"},
    };
    os << "engine pools (" << stats_path << "):\n";
    for (const auto &c : kCounters) {
        double v = 0;
        if (extractStatValue(doc, c.name, v))
            os << "  " << c.label << ": "
               << static_cast<std::uint64_t>(v) << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t top = 10;
    std::string stats_path;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--stats") {
            if (i + 1 >= argc) {
                std::cerr << "missing value for --stats\n" << kUsage;
                return 2;
            }
            stats_path = argv[++i];
        } else if (a == "--top") {
            if (i + 1 >= argc) {
                std::cerr << "missing value for --top\n" << kUsage;
                return 2;
            }
            if (!ap::parseU64(argv[++i], top)) {
                std::cerr << "bad value for --top: '" << argv[i]
                          << "' (expected a non-negative integer)\n"
                          << kUsage;
                return 2;
            }
        } else if (a == "--help" || a == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::cerr << "unknown option: " << a << "\n" << kUsage;
            return 2;
        } else {
            paths.push_back(a);
        }
    }
    if (paths.empty()) {
        std::cerr << kUsage;
        return 2;
    }

    int status = 0;
    for (const std::string &path : paths) {
        std::vector<ap::WalkTraceRecord> records;
        std::uint64_t dropped = 0;
        if (!ap::readWalkTraceFile(path, records, dropped)) {
            std::cerr << path
                      << ": not a readable walk-trace file (wrong "
                         "magic/version or truncated)\n";
            status = 1;
            continue;
        }
        if (paths.size() > 1)
            std::cout << "== " << path << " ==\n";
        ap::WalkTraceSummary summary = ap::summarizeWalkTrace(
            records, dropped, static_cast<std::size_t>(top));
        ap::printWalkTraceSummary(std::cout, summary);
    }
    if (!stats_path.empty())
        printPoolCounters(std::cout, stats_path);
    return status;
}
