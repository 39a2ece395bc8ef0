/**
 * @file
 * Trace tool: record a workload's memory-system event stream to a
 * file, or replay a recorded trace under any technique — the
 * simulator's equivalent of the paper's trace-cmd + BadgerTrap
 * methodology (Section VI), usable for shipping reproducible inputs.
 *
 *   ./trace_tool record <workload> <file> [ops]
 *   ./trace_tool replay <file> <mode> [key=value ...]
 *   ./trace_tool info   <file>
 *
 * Files are in the compact APTRACE2 format. replay and info load the
 * file whole with readCompiledTraceFile; replay drains its access
 * runs in batch. Misuse prints the usage and exits 2; an unreadable
 * file exits 1.
 */

#include <array>
#include <bit>
#include <iostream>
#include <memory>
#include <string>

#include "base/logging.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "trace/compiled_trace.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace
{

/** Print @p why and the usage; @return 2 (the CLI misuse code). */
int
usage(const std::string &why = "")
{
    if (!why.empty())
        std::cerr << "trace_tool: " << why << "\n";
    std::cerr << "usage:\n"
              << "  trace_tool record <workload> <file> [ops]\n"
              << "  trace_tool replay <file> <mode> [key=value ...]\n"
              << "  trace_tool info   <file>\n";
    return 2;
}

/** Load @p path, printing "cannot read" on failure. */
bool
load(const std::string &path, ap::CompiledTrace &trace)
{
    if (ap::readCompiledTraceFile(path, trace))
        return true;
    std::cerr << "cannot read " << path << "\n";
    return false;
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
        // defaultParamsFor treats an unknown name as fatal; ask the
        // registry first so it is a usage error.
        if (!ap::makeWorkload(workload, ap::WorkloadParams{}))
            return usage("unknown workload: " + workload);
        ap::WorkloadParams params = ap::defaultParamsFor(workload);
        if (argc > 5 || (argc == 5 &&
                         !ap::parseU64(argv[4], params.operations)))
            return usage();
        ap::SimConfig cfg = ap::configFor(ap::VirtMode::Nested,
                                          ap::PageSize::Size4K, params);
        ap::Machine machine(cfg);
        auto w = ap::makeWorkload(workload, params);
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
        if (argc != 3)
            return usage();
        ap::CompiledTrace trace;
        if (!load(argv[2], trace))
            return 1;
        constexpr std::size_t kKinds =
            static_cast<std::size_t>(ap::TraceEvent::kLastKind) + 1;
        std::array<std::uint64_t, kKinds> by_kind{};
        for (const ap::TraceEvent &e : trace.ctrl)
            ++by_kind[static_cast<std::size_t>(e.kind)];
        // Access runs fold both access kinds; the instr bitmap splits
        // them (its bits past vas.size() are clear).
        std::uint64_t fetches = 0;
        for (std::uint64_t word : trace.instrBits)
            fetches += std::popcount(word);
        by_kind[static_cast<std::size_t>(
            ap::TraceEvent::Kind::InstrFetch)] = fetches;
        by_kind[static_cast<std::size_t>(ap::TraceEvent::Kind::Access)] =
            trace.vas.size() - fetches;
        std::cout << "workload: " << trace.workload
                  << "\nseed:     " << trace.seed
                  << "\nevents:   " << trace.eventCount << " ("
                  << trace.warmupEvents << " warmup)\n";
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
        if (!ap::parseVirtMode(argv[3], cfg.mode))
            return usage(std::string("unknown mode: ") + argv[3]);
        // Size memory generously for arbitrary traces.
        cfg.hostMemFrames = 1u << 19;
        cfg.guestDataFrames = 1u << 18;
        cfg.guestPtFrames = 1u << 15;
        for (int i = 4; i < argc; ++i) {
            if (!cfg.applyOption(argv[i]))
                return usage(std::string("unknown option: ") + argv[i]);
        }
        auto trace = std::make_shared<ap::CompiledTrace>();
        if (!load(argv[2], *trace))
            return 1;
        ap::Machine machine(cfg);
        ap::BatchReplayWorkload replay(std::move(trace));
        std::vector<ap::RunResult> rs{machine.run(replay)};
        ap::printFigure5(std::cout, rs);
        return 0;
    }
    return usage("unknown command: " + cmd);
}
