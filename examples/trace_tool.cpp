/**
 * @file
 * Trace tool: record a workload's memory-system event stream to a
 * file, or replay a recorded trace under any technique — the
 * simulator's equivalent of the paper's trace-cmd + BadgerTrap
 * methodology (Section VI), usable for shipping reproducible inputs.
 *
 *   ./trace_tool record <workload> <file> [ops]
 *   ./trace_tool replay <file> <mode> [--stream] [key=value ...]
 *   ./trace_tool info   <file>
 *
 * Files are written in the compact v2 format (APTRACE2); v1 files
 * still read. info streams the file, so arbitrarily large traces
 * summarize in bounded memory; replay defaults to the batched
 * fast path and --stream trades speed for bounded memory.
 */

#include <array>
#include <iostream>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "trace/trace_stream.hh"

namespace
{

int
usage()
{
    std::cerr << "usage:\n"
              << "  trace_tool record <workload> <file> [ops]\n"
              << "  trace_tool replay <file> <mode> [--stream]"
                 " [key=value ...]\n"
              << "  trace_tool info   <file>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "record") {
        if (argc < 4)
            return usage();
        std::string workload = argv[2];
        std::string path = argv[3];
        ap::WorkloadParams params = ap::defaultParamsFor(workload);
        if (argc > 5 || (argc == 5 &&
                         !ap::parseU64(argv[4], params.operations)))
            return usage();
        ap::SimConfig cfg = ap::configFor(ap::VirtMode::Nested,
                                          ap::PageSize::Size4K, params);
        ap::Machine machine(cfg);
        auto w = ap::makeWorkload(workload, params);
        if (!w) {
            std::cerr << "unknown workload: " << workload << "\n";
            return 1;
        }
        ap::RecordedRun run = ap::recordRun(machine, *w);
        if (!ap::writeTraceFile(run.trace, path)) {
            std::cerr << "cannot write " << path << "\n";
            return 1;
        }
        std::cout << "recorded " << run.trace.events.size()
                  << " events (" << run.trace.warmupEvents
                  << " warmup) to " << path << "\n";
        return 0;
    }

    if (cmd == "info") {
        // Streamed: summarizes multi-GB traces in bounded memory.
        ap::TraceFileReader reader(argv[2]);
        if (!reader.ok()) {
            std::cerr << "cannot read " << argv[2] << "\n";
            return 1;
        }
        constexpr std::size_t kKinds =
            static_cast<std::size_t>(ap::TraceEvent::kLastKind) + 1;
        std::array<std::uint64_t, kKinds> by_kind{};
        std::vector<ap::TraceEvent> chunk;
        while (reader.next(chunk, 65536)) {
            for (const ap::TraceEvent &e : chunk)
                ++by_kind[static_cast<std::size_t>(e.kind)];
        }
        if (!reader.ok()) {
            std::cerr << "malformed trace: " << argv[2] << "\n";
            return 1;
        }
        std::cout << "workload: " << reader.workload()
                  << "\nformat:   v" << reader.version()
                  << "\nseed:     " << reader.seed()
                  << "\nevents:   " << reader.eventCount() << " ("
                  << reader.warmupEvents() << " warmup)\n";
        static constexpr const char *names[] = {
            "access",       "instr_fetch", "mmap",          "mmap_at",
            "munmap",       "compute",     "fork",          "yield",
            "reclaim_tick", "share",       "spawn_process", "switch_to"};
        static_assert(std::size(names) == kKinds,
                      "one name per TraceEvent::Kind");
        for (std::size_t k = 0; k < by_kind.size(); ++k) {
            if (by_kind[k])
                std::cout << "  " << names[k] << ": " << by_kind[k]
                          << "\n";
        }
        return 0;
    }

    if (cmd == "replay") {
        if (argc < 4)
            return usage();
        ap::SimConfig cfg;
        if (!ap::parseVirtMode(argv[3], cfg.mode)) {
            std::cerr << "unknown mode: " << argv[3] << "\n";
            return 1;
        }
        // Size memory generously for arbitrary traces.
        cfg.hostMemFrames = 1u << 19;
        cfg.guestDataFrames = 1u << 18;
        cfg.guestPtFrames = 1u << 15;
        bool stream = false;
        for (int i = 4; i < argc; ++i) {
            if (!std::string("--stream").compare(argv[i])) {
                stream = true;
            } else if (!cfg.applyOption(argv[i])) {
                std::cerr << "unknown option: " << argv[i] << "\n";
                return 1;
            }
        }
        ap::Machine machine(cfg);
        ap::RunResult r;
        if (stream) {
            // Bounded memory: never materializes the event vector.
            ap::StreamReplayWorkload replay(argv[2]);
            if (!replay.ok()) {
                std::cerr << "cannot read " << argv[2] << "\n";
                return 1;
            }
            r = machine.run(replay);
        } else {
            // Fast path: compile once, drain access runs in batch.
            ap::Trace trace;
            if (!ap::readTraceFile(argv[2], trace)) {
                std::cerr << "cannot read " << argv[2] << "\n";
                return 1;
            }
            auto compiled = std::make_shared<const ap::CompiledTrace>(
                ap::compileTrace(trace));
            ap::BatchReplayWorkload replay(compiled);
            r = machine.run(replay);
        }
        std::vector<ap::RunResult> rs{r};
        ap::printFigure5(std::cout, rs);
        return 0;
    }
    return usage();
}
