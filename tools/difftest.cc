/**
 * @file
 * Differential-testing driver: fans randomized seeds across the
 * thread pool, replaying each trace through lock-stepped shadow,
 * nested, agile, and range machines with invariant checks after every
 * event.
 * Failing seeds are shrunk to a minimal trace and written to disk for
 * standalone replay.
 *
 * Usage:
 *   difftest [--seeds N] [--seed-base S] [--ops N] [--jobs N]
 *            [--page 4k|2m|both] [--reclaim] [--no-hw-opts]
 *            [--sweep N] [--out DIR]
 *   difftest --inject K [...]     self-test: a shadow-coherence bug is
 *                                 injected after the Kth access; every
 *                                 seed must be caught and shrink to a
 *                                 still-failing trace (exit 0 only
 *                                 then)
 *   difftest --replay FILE [...]  replay one saved trace and report
 *   difftest --snapshot [...]     snapshot-vs-cold mode: per seed,
 *                                 run each workload cold and via
 *                                 warmup -> capture -> restore into a
 *                                 fresh machine -> measured region,
 *                                 and require the two RunResults to
 *                                 match field for field
 *
 * Exit status: 0 when every seed passed (or, with --inject, every
 * seed was caught), 1 otherwise.
 */

#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/oracle.hh"
#include "sim/parallel_runner.hh"
#include "sim/snapshot.hh"

namespace
{

const char kUsage[] =
    "usage: difftest [--seeds N] [--seed-base S] [--ops N] [--jobs N]\n"
    "                [--page 4k|2m|both] [--vcpus N[,N...]]\n"
    "                [--coherence sw|hw] [--reclaim] [--no-hw-opts]\n"
    "                [--sweep N] [--inject K] [--inject-stale K]\n"
    "                [--inject-segment K] [--replay FILE] [--out DIR]\n"
    "                [--snapshot]\n";

struct Cli
{
    std::uint64_t seeds = 64;
    std::uint64_t seedBase = 1;
    std::uint64_t ops = 3000;
    unsigned jobs = 0;
    std::vector<ap::PageSize> pages = {ap::PageSize::Size4K,
                                       ap::PageSize::Size2M};
    bool reclaim = false;
    bool hwOpts = true;
    std::uint64_t sweep = 256;
    std::uint64_t inject = 0;
    std::uint64_t injectStale = 0;
    std::uint64_t injectSegment = 0;
    std::vector<unsigned> vcpus = {1};
    ap::TlbCoherence coherence = ap::TlbCoherence::Software;
    bool snapshot = false;
    std::string replayPath;
    std::string outDir = ".";
};

struct SeedOutcome
{
    std::uint64_t seed = 0;
    ap::OracleReport report;
};

void
printViolation(const ap::InvariantViolation &v)
{
    std::cout << "  invariant : " << v.invariant << "\n"
              << "  event     : #" << v.eventIndex << "\n"
              << "  va        : 0x" << std::hex << v.va << std::dec
              << "\n"
              << "  detail    : " << v.detail << "\n";
}

ap::OracleOptions
optionsFor(const Cli &cli, ap::PageSize page, std::uint64_t seed,
           unsigned vcpus)
{
    ap::OracleOptions opts;
    opts.pageSize = page;
    opts.hwOpts = cli.hwOpts;
    opts.seed = seed;
    opts.operations = cli.ops;
    opts.includeReclaim = cli.reclaim;
    opts.sweepInterval = cli.sweep;
    opts.injectAtAccess = cli.inject;
    opts.injectStaleTlbAtAccess = cli.injectStale;
    opts.injectStaleSegmentAtAccess = cli.injectSegment;
    opts.numVcpus = vcpus;
    opts.tlbCoherence = cli.coherence;
    return opts;
}

/** "4K" for the classic single-vCPU matrix, "4K/4vcpu" beyond it. */
std::string
cellLabel(ap::PageSize page, unsigned vcpus)
{
    std::string label = ap::pageSizeName(page);
    if (vcpus > 1)
        label += "/" + std::to_string(vcpus) + "vcpu";
    return label;
}

/**
 * Shrink a failing seed and persist the minimal trace.
 * @return true when the shrunk trace still fails standalone.
 */
bool
shrinkAndSave(const Cli &cli, const ap::OracleOptions &opts,
              const ap::Trace &trace, ap::PageSize page,
              std::uint64_t seed)
{
    ap::Trace minimal = ap::shrinkTrace(trace, opts);
    std::string path = cli.outDir + "/difftest_fail_" +
                       ap::pageSizeName(page) + "_seed" +
                       std::to_string(seed) + ".aptrace";
    if (!ap::writeTraceFile(minimal, path)) {
        std::cout << "  (could not write " << path << ")\n";
        return false;
    }
    ap::OracleReport again = ap::runDifferential(minimal, opts);
    std::cout << "  shrunk    : " << trace.events.size() << " -> "
              << minimal.events.size() << " events, saved to " << path
              << "\n"
              << "  replay    : difftest --replay " << path << " --page "
              << ap::pageSizeName(page)
              << (cli.inject
                      ? " --inject " + std::to_string(cli.inject)
                      : std::string())
              << (cli.injectStale
                      ? " --inject-stale " + std::to_string(cli.injectStale)
                      : std::string())
              << (cli.injectSegment
                      ? " --inject-segment " +
                            std::to_string(cli.injectSegment)
                      : std::string())
              << (opts.numVcpus > 1
                      ? " --vcpus " + std::to_string(opts.numVcpus)
                      : std::string())
              << (cli.hwOpts ? "" : " --no-hw-opts") << "\n";
    return !again.passed;
}

int
runMatrix(const Cli &cli)
{
    bool all_ok = true;
    for (ap::PageSize page : cli.pages) {
    for (unsigned vcpus : cli.vcpus) {
        std::string label = cellLabel(page, vcpus);
        std::vector<SeedOutcome> outcomes = ap::parallelMap(
            cli.seeds, cli.jobs, [&](std::uint64_t i) {
                SeedOutcome out;
                out.seed = cli.seedBase + i;
                ap::OracleOptions opts =
                    optionsFor(cli, page, out.seed, vcpus);
                out.report =
                    ap::runDifferential(ap::makeRandomTrace(opts), opts);
                return out;
            });

        std::uint64_t caught = 0, events = 0, accesses = 0;
        for (const SeedOutcome &out : outcomes) {
            events += out.report.eventsReplayed;
            accesses += out.report.accessesChecked;
            if (!out.report.passed)
                ++caught;
        }

        if (cli.inject || cli.injectStale || cli.injectSegment) {
            // Self-test: every seed must be caught, and the failure
            // must survive shrinking.
            std::cout << label << ": injected bug "
                      << "caught in " << caught << "/" << cli.seeds
                      << " seeds\n";
            if (caught != cli.seeds) {
                all_ok = false;
                continue;
            }
            for (const SeedOutcome &out : outcomes) {
                ap::OracleOptions opts =
                    optionsFor(cli, page, out.seed, vcpus);
                printViolation(out.report.violations.front());
                if (!shrinkAndSave(cli, opts,
                                   ap::makeRandomTrace(opts), page,
                                   out.seed)) {
                    std::cout << "  shrunk trace no longer fails\n";
                    all_ok = false;
                }
            }
            continue;
        }

        std::cout << label << ": " << cli.seeds
                  << " seeds, " << events << " events, " << accesses
                  << " accesses checked";
        if (caught == 0) {
            std::cout << " -- PASS\n";
            continue;
        }
        std::cout << " -- " << caught << " FAILING SEED"
                  << (caught > 1 ? "S" : "") << "\n";
        all_ok = false;
        for (const SeedOutcome &out : outcomes) {
            if (out.report.passed)
                continue;
            std::cout << "seed " << out.seed << " (" << label << "):\n";
            printViolation(out.report.violations.front());
            ap::OracleOptions opts =
                optionsFor(cli, page, out.seed, vcpus);
            shrinkAndSave(cli, opts, ap::makeRandomTrace(opts), page,
                          out.seed);
        }
    }
    }
    return all_ok ? 0 : 1;
}

/** Field-for-field RunResult comparison; appends mismatches. */
bool
sameRunResult(const ap::RunResult &a, const ap::RunResult &b,
              std::string &why)
{
    auto check = [&why](bool ok, const char *field) {
        if (!ok)
            why += std::string(why.empty() ? "" : ", ") + field;
        return ok;
    };
    bool same = true;
    same &= check(a.instructions == b.instructions, "instructions");
    same &= check(a.idealCycles == b.idealCycles, "idealCycles");
    same &= check(a.walkCycles == b.walkCycles, "walkCycles");
    same &= check(a.trapCycles == b.trapCycles, "trapCycles");
    same &= check(a.tlbMisses == b.tlbMisses, "tlbMisses");
    same &= check(a.walks == b.walks, "walks");
    same &= check(a.traps == b.traps, "traps");
    same &= check(a.guestPageFaults == b.guestPageFaults,
                  "guestPageFaults");
    same &= check(a.avgWalkRefs == b.avgWalkRefs, "avgWalkRefs");
    for (int i = 0; i < 6; ++i)
        same &= check(a.coverage[i] == b.coverage[i], "coverage");
    for (unsigned k = 0; k < ap::kNumTrapKinds; ++k)
        same &= check(a.trapByKind[k] == b.trapByKind[k], "trapByKind");
    same &= check(a.segmentHits == b.segmentHits, "segmentHits");
    same &= check(a.segmentSpills == b.segmentSpills, "segmentSpills");
    same &= check(a.segmentInvalidations == b.segmentInvalidations,
                  "segmentInvalidations");
    return same;
}

/**
 * Snapshot-vs-cold differential: every workload x mode x page cell
 * runs twice — cold (Machine::run) and split (runWarmup on one
 * machine, capture, restore into a *fresh* machine, runMeasured) —
 * and the two results must be bit-identical.
 */
int
runSnapshotDiff(const Cli &cli)
{
    const ap::VirtMode modes[] = {ap::VirtMode::Nested,
                                  ap::VirtMode::Shadow,
                                  ap::VirtMode::Agile,
                                  ap::VirtMode::Range};
    bool all_ok = true;
    for (ap::PageSize page : cli.pages) {
        std::uint64_t cells = 0, failed = 0;
        for (std::uint64_t i = 0; i < cli.seeds; ++i) {
            std::uint64_t seed = cli.seedBase + i;
            const auto &names = ap::workloadNames();
            const std::string &wl = names[i % names.size()];
            ap::WorkloadParams params = ap::defaultParamsFor(wl);
            params.operations = cli.ops;
            params.seed = seed;
            unsigned vcpus = cli.vcpus[i % cli.vcpus.size()];
            for (ap::VirtMode mode : modes) {
                ap::SimConfig cfg =
                    configFor(mode, page, params, cli.hwOpts);
                cfg.numVcpus = vcpus;
                cfg.tlbCoherence = cli.coherence;
                auto w1 = ap::makeWorkload(wl, params);
                ap::Machine cold_machine(cfg);
                ap::RunResult cold = cold_machine.run(*w1);

                auto w2 = ap::makeWorkload(wl, params);
                ap::Machine warm(cfg);
                warm.runWarmup(*w2);
                ap::SnapshotPtr snap = ap::captureSnapshot(warm);
                ap::Machine restored(cfg);
                if (!ap::restoreSnapshot(*snap, restored)) {
                    std::cout << "seed " << seed << " " << wl << "/"
                              << ap::virtModeName(mode)
                              << ": restore failed\n";
                    all_ok = false;
                    ++failed;
                    ++cells;
                    continue;
                }
                ap::RunResult split = restored.runMeasured(*w2);
                std::string why;
                if (!sameRunResult(cold, split, why)) {
                    std::cout << "seed " << seed << " " << wl << "/"
                              << ap::virtModeName(mode) << " ("
                              << ap::pageSizeName(page)
                              << "): snapshot run diverges from cold "
                              << "run in " << why << "\n";
                    all_ok = false;
                    ++failed;
                }
                ++cells;
            }
        }
        std::cout << ap::pageSizeName(page) << ": " << cli.seeds
                  << " seeds, " << cells
                  << " snapshot-vs-cold cells -- "
                  << (failed ? "FAIL" : "PASS") << "\n";
    }
    return all_ok ? 0 : 1;
}

int
runReplay(const Cli &cli)
{
    ap::Trace trace;
    if (!ap::readTraceFile(cli.replayPath, trace)) {
        std::cerr << "cannot read trace: " << cli.replayPath << "\n";
        return 1;
    }
    int status = 0;
    for (ap::PageSize page : cli.pages) {
        ap::OracleOptions opts =
            optionsFor(cli, page, trace.seed, cli.vcpus.front());
        ap::OracleReport rep = ap::runDifferential(trace, opts);
        std::cout << cli.replayPath << " (" << ap::pageSizeName(page)
                  << "): " << rep.eventsReplayed << " events, "
                  << rep.accessesChecked << " accesses -- "
                  << (rep.passed ? "PASS" : "VIOLATION") << "\n";
        if (!rep.passed) {
            printViolation(rep.violations.front());
            status = 1;
        }
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << a << "\n" << kUsage;
                std::exit(2);
            }
            return argv[++i];
        };
        // Reject junk ("4k", "1e6", "-1") instead of silently
        // truncating or wrapping the way bare stoull would.
        auto nextU64 = [&]() -> std::uint64_t {
            std::string v = next();
            std::uint64_t out = 0;
            if (!ap::parseU64(v, out)) {
                std::cerr << "bad value for " << a << ": '" << v
                          << "' (expected a non-negative integer)\n"
                          << kUsage;
                std::exit(2);
            }
            return out;
        };
        if (a == "--seeds") {
            cli.seeds = nextU64();
        } else if (a == "--seed-base") {
            cli.seedBase = nextU64();
        } else if (a == "--ops") {
            cli.ops = nextU64();
        } else if (a == "--jobs") {
            cli.jobs = static_cast<unsigned>(nextU64());
        } else if (a == "--page") {
            std::string p = next();
            if (p == "both") {
                cli.pages = {ap::PageSize::Size4K, ap::PageSize::Size2M};
            } else {
                ap::PageSize ps;
                if (!ap::parsePageSize(p, ps)) {
                    std::cerr << "bad value for --page: '" << p
                              << "' (expected 4k, 2m or both)\n"
                              << kUsage;
                    std::exit(2);
                }
                cli.pages = {ps};
            }
        } else if (a == "--reclaim") {
            cli.reclaim = true;
        } else if (a == "--no-hw-opts") {
            cli.hwOpts = false;
        } else if (a == "--sweep") {
            cli.sweep = nextU64();
        } else if (a == "--inject") {
            cli.inject = nextU64();
        } else if (a == "--inject-stale") {
            cli.injectStale = nextU64();
        } else if (a == "--inject-segment") {
            cli.injectSegment = nextU64();
        } else if (a == "--vcpus") {
            cli.vcpus.clear();
            std::string v = next();
            std::size_t pos = 0;
            while (pos <= v.size()) {
                std::size_t comma = v.find(',', pos);
                std::string item = v.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos);
                std::uint64_t n = 0;
                if (!ap::parseU64(item, n) || n < 1 || n > 64) {
                    std::cerr << "bad value for --vcpus: '" << item
                              << "' (expected 1..64)\n"
                              << kUsage;
                    return 2;
                }
                cli.vcpus.push_back(static_cast<unsigned>(n));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else if (a == "--coherence") {
            std::string c = next();
            if (c == "sw" || c == "software") {
                cli.coherence = ap::TlbCoherence::Software;
            } else if (c == "hw" || c == "hardware") {
                cli.coherence = ap::TlbCoherence::Hardware;
            } else {
                std::cerr << "bad value for --coherence: '" << c
                          << "' (expected sw or hw)\n"
                          << kUsage;
                return 2;
            }
        } else if (a == "--replay") {
            cli.replayPath = next();
        } else if (a == "--snapshot") {
            cli.snapshot = true;
        } else if (a == "--out") {
            cli.outDir = next();
        } else {
            std::cerr << "unknown option: " << a << "\n" << kUsage;
            return 2;
        }
    }
    if (cli.snapshot)
        return runSnapshotDiff(cli);
    return cli.replayPath.empty() ? runMatrix(cli) : runReplay(cli);
}
