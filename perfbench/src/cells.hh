/**
 * @file
 * The cells the benchmark runs and the ways it runs them. Every runner
 * goes through the simulator's public entry points. The instrumented
 * variants are the harness's own copies of runCellCached and
 * runCellSnapshotted (src/trace/trace_cache.cc) and of Machine::run:
 * they compose the same public pieces with a Span around each call,
 * and must produce bit-identical results (the digest check proves it).
 * The copies take the library's steps only as long as they are kept in
 * step with it by hand. Their spans record only while spanLog() is
 * enabled; disabled, a copy costs what the library path costs plus one
 * branch per span.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/machine_pool.hh"
#include "sim/snapshot.hh"
#include "trace/trace_cache.hh"

namespace perfbench
{

/** Operations per cell on every workload. */
constexpr std::uint64_t kCellOps = 200'000;

/** The 64 Figure 5 cells (8 workloads x {4K, 2M} x 4 modes). */
std::vector<ap::ExperimentSpec> figure5Cells();

/** shootdown_storm, reclaim_scan, page_migration x {nested, shadow,
 *  agile} x {sw, hw} at 4 vCPUs: 18 cells, workload innermost. */
std::vector<ap::ExperimentSpec> coherenceCells();

/** The workload parameters of @p spec under @p seed. */
ap::WorkloadParams cellParams(const ap::ExperimentSpec &spec,
                              std::uint64_t seed);

/** The machine config of @p spec (as runExperiment builds it). */
ap::SimConfig cellConfig(const ap::ExperimentSpec &spec,
                         const ap::WorkloadParams &params);

/**
 * The plain path: runExperiment with the seed supplied — a fresh
 * Machine and generator, no caches. This is the reference every other
 * runner is checked against. @p instrumented runs the harness's copy
 * (construct, runWarmup, runMeasured, destroy; one span each).
 */
ap::RunResult runPlain(const ap::ExperimentSpec &spec, std::uint64_t seed,
                       std::int64_t cell_id = -1,
                       bool instrumented = false);

/** runCellCached for @p spec, or the harness's instrumented copy. */
ap::RunResult runCached(ap::TraceCache &traces,
                        const ap::ExperimentSpec &spec, std::uint64_t seed,
                        std::int64_t cell_id, bool instrumented);

/** runCellSnapshotted (batched, pooled) for @p spec, or the harness's
 *  instrumented copy. */
ap::RunResult runSnapshotted(ap::TraceCache &traces,
                             ap::SnapshotCache &snaps,
                             ap::MachinePool &pool,
                             const ap::ExperimentSpec &spec,
                             std::uint64_t seed, std::int64_t cell_id,
                             bool instrumented);

/**
 * Drive @p workload's generator (makeWorkload, init, warmup, every
 * step) against a counting stub host, with no machine behind it.
 * @return host calls issued (accesses, fetches, maps, ...).
 */
std::uint64_t driveGenerator(const std::string &workload,
                             const ap::WorkloadParams &params);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
