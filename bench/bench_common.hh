/**
 * @file
 * Shared command-line handling for the bench drivers.
 *
 * Every bench accepts the same core knobs — operation count, worker
 * threads, seed, page size, vCPUs, and the snapshot directory and
 * budget of the CellEngine the bench runs its cells through — parsed
 * here once instead of fourteen times. Benches keep their own
 * loop for bench-specific flags and call BenchOptions::consume() for
 * everything else; a bare integer argument is accepted as the
 * operation count for backward compatibility with the original
 * positional form.
 */

#ifndef AGILEPAGING_BENCH_BENCH_COMMON_HH
#define AGILEPAGING_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "base/types.hh"
#include "sim/config.hh"
#include "trace/trace_cache.hh"

namespace ap
{

/** Parse "4K"/"4k"/"4096" or "2M"/"2m"/"2097152". */
inline bool
benchParsePageSize(const char *s, PageSize &out)
{
    if (!std::strcmp(s, "4K") || !std::strcmp(s, "4k") ||
        !std::strcmp(s, "4096")) {
        out = PageSize::Size4K;
        return true;
    }
    if (!std::strcmp(s, "2M") || !std::strcmp(s, "2m") ||
        !std::strcmp(s, "2097152")) {
        out = PageSize::Size2M;
        return true;
    }
    return false;
}

/** The core knobs every bench driver shares. */
struct BenchOptions
{
    explicit BenchOptions(std::uint64_t default_ops) : ops(default_ops) {}

    std::uint64_t ops;
    unsigned jobs = 1;
    std::uint64_t seed = 0;
    bool seedSet = false;
    PageSize pageSize = PageSize::Size4K;
    bool pageSizeSet = false;
    unsigned vcpus = 1;
    TlbCoherence tlbCoherence = TlbCoherence::Software;
    std::string snapshotDir;
    /** SnapshotCache byte budget in MiB (0 = unlimited). */
    std::uint64_t snapshotPoolMb = 0;
    bool snapshotPoolMbSet = false;

    /** The --snapshot-pool-mb budget in bytes. */
    std::uint64_t
    snapshotPoolBytes() const
    {
        return snapshotPoolMb << 20;
    }

    /** A CellEngine with the --snapshot-dir and --snapshot-pool-mb
     *  settings. Exits 2 if the directory does not exist: every write
     *  to it is best effort, so a missing one would persist nothing
     *  and say nothing. */
    CellEngine
    engine() const
    {
        std::error_code ec;
        if (!snapshotDir.empty() &&
            !std::filesystem::is_directory(snapshotDir, ec)) {
            std::cerr << "--snapshot-dir '" << snapshotDir
                      << "' is not an existing directory\n";
            std::exit(2);
        }
        return CellEngine(snapshotDir, snapshotPoolBytes());
    }

    /** For benches that run no cell through a CellEngine: exit 2 if
     *  --snapshot-dir was given, since nothing would be persisted, or
     *  --snapshot-pool-mb unless the bench @p pools_snapshots. */
    void
    refuseCacheFlags(char **argv, bool pools_snapshots) const
    {
        if (!snapshotDir.empty()) {
            std::cerr << argv[0]
                      << ": --snapshot-dir is not supported: this bench"
                         " persists no cells\n";
            std::exit(2);
        }
        if (snapshotPoolMbSet && !pools_snapshots) {
            std::cerr << argv[0]
                      << ": --snapshot-pool-mb is not supported: this"
                         " bench pools no snapshots\n";
            std::exit(2);
        }
    }

    /** The usage fragment for the flags consume() understands. */
    static const char *
    usage()
    {
        return "[ops] [--ops N] [--jobs N] [--seed N]"
               " [--page-size 4K|2M] [--vcpus N]"
               " [--tlb-coherence sw|hw] [--snapshot-dir DIR]"
               " [--snapshot-pool-mb N]";
    }

    /**
     * Try to consume argv[i] (and its value, advancing @p i). Exits
     * with usage on a malformed value. @return false if the argument
     * is not a common flag (the bench's own loop handles it).
     */
    bool
    consume(int argc, char **argv, int &i)
    {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto u64 = [&](const char *flag) {
            std::uint64_t v = 0;
            const char *s = value(flag);
            if (!parseU64(s, v)) {
                std::cerr << argv[0] << ": bad " << flag << " value '"
                          << s << "'\n";
                std::exit(2);
            }
            return v;
        };
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--ops")) {
            ops = u64("--ops");
        } else if (!std::strcmp(arg, "--jobs")) {
            jobs = static_cast<unsigned>(u64("--jobs"));
        } else if (!std::strcmp(arg, "--seed")) {
            seed = u64("--seed");
            seedSet = true;
        } else if (!std::strcmp(arg, "--page-size")) {
            const char *s = value("--page-size");
            if (!benchParsePageSize(s, pageSize)) {
                std::cerr << argv[0] << ": bad --page-size '" << s
                          << "' (want 4K or 2M)\n";
                std::exit(2);
            }
            pageSizeSet = true;
        } else if (!std::strcmp(arg, "--vcpus")) {
            std::uint64_t v = u64("--vcpus");
            if (v < 1 || v > 64) {
                std::cerr << argv[0] << ": bad --vcpus value '" << v
                          << "' (want 1..64)\n";
                std::exit(2);
            }
            vcpus = static_cast<unsigned>(v);
        } else if (!std::strcmp(arg, "--tlb-coherence")) {
            const char *s = value("--tlb-coherence");
            if (!std::strcmp(s, "sw") || !std::strcmp(s, "software")) {
                tlbCoherence = TlbCoherence::Software;
            } else if (!std::strcmp(s, "hw") ||
                       !std::strcmp(s, "hardware")) {
                tlbCoherence = TlbCoherence::Hardware;
            } else {
                std::cerr << argv[0] << ": bad --tlb-coherence '" << s
                          << "' (want sw or hw)\n";
                std::exit(2);
            }
        } else if (!std::strcmp(arg, "--snapshot-dir")) {
            snapshotDir = value("--snapshot-dir");
        } else if (!std::strcmp(arg, "--snapshot-pool-mb")) {
            std::uint64_t v = u64("--snapshot-pool-mb");
            // Kept in bytes: v << 20 must not overflow.
            if (v >= (1ull << 44)) {
                std::cerr << argv[0] << ": bad --snapshot-pool-mb value '"
                          << v << "' (want < 2^44)\n";
                std::exit(2);
            }
            snapshotPoolMb = v;
            snapshotPoolMbSet = true;
        } else if (arg[0] != '-') {
            // Legacy positional operation count.
            std::uint64_t v = 0;
            if (!parseU64(arg, v))
                return false;
            ops = v;
        } else {
            return false;
        }
        return true;
    }

    /** Report an unrecognized argument and exit. @p extra lists the
     *  bench's own flags for the usage line ("" if none). */
    [[noreturn]] void
    reject(char **argv, int i, const char *extra) const
    {
        std::cerr << "unknown argument '" << argv[i] << "'\n"
                  << "usage: " << argv[0] << " " << usage();
        if (extra && *extra)
            std::cerr << " " << extra;
        std::cerr << "\n";
        std::exit(2);
    }
};

/** One line of the engine's cache counters, for the bench footers. */
inline void
printEngineCounters(const CellEngine &engine)
{
    std::cout << "[trace cache: " << engine.traces().records()
              << " recorded, " << engine.traces().replays()
              << " replayed, " << engine.traces().diskLoads()
              << " from disk; snapshots: " << engine.snapshots().captures()
              << " captured, " << engine.snapshots().forks()
              << " forked, " << engine.snapshots().diskLoads()
              << " from disk]\n";
}

} // namespace ap

#endif // AGILEPAGING_BENCH_BENCH_COMMON_HH
