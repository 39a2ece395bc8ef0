/**
 * @file
 * The benchmark's four workloads. Each owns the simulator state a user
 * of that path would hold (nothing, warm caches, a daemon), rebuilds
 * it in setup(), and runs one pass over its cells per pass() call.
 */

#ifndef PERFBENCH_BENCHES_HH
#define PERFBENCH_BENCHES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace perfbench
{

/** One pass over a workload's cells. */
struct PassResult
{
    /** Per cell, in cell order: digest of the result (0 = no result:
     *  the cell threw or was answered with an Error frame). */
    std::vector<std::uint64_t> digests;
    /** Per cell: ms from submit to result. */
    std::vector<double> cellMs;
    /** Per request (one batch = one matrix row; service only): ms from
     *  send to BatchEnd. */
    std::vector<double> reqMs;
    /** Per request (service only): ms from send to the first RunFrame. */
    std::vector<double> firstFrameMs;
    /** Wall clock of the pass's timed part, s. */
    double wallS = 0;
};

/**
 * Threads (service: worker processes) every workload runs its cells
 * on. Two, not one: on a 4-vCPU virtual machine shared with other
 * tenants, interleaved runs of fig5-cold and vcpu4-coherence varied
 * about half as much run to run at two threads (coefficient of
 * variation 5% and 9%) as at one (10-12% and 14%).
 */
constexpr unsigned kThreads = 2;

/** Named per-layer numbers a workload keeps itself. */
using LayerCounters = std::map<std::string, double>;

class Bench
{
  public:
    virtual ~Bench() = default;

    /** The cells of one pass, in order. */
    virtual const std::vector<ap::ExperimentSpec> &cells() const = 0;
    /** Seed the cells actually run under. */
    virtual std::uint64_t seed() const = 0;
    /** Name of the committed reference set ("fig5", "coherence"). */
    virtual std::string referenceSet() const = 0;
    /**
     * Drop any previous state, build it from nothing, and run the
     * untimed warm pass(es). @p instrumented runs the cells through
     * the harness's instrumented copies (see cells.hh), as pass()
     * does. @return the passes run.
     */
    virtual std::vector<PassResult> setup(bool instrumented) = 0;
    /** One timed pass; @p instrumented as for setup(). */
    virtual PassResult pass(bool instrumented) = 0;
    /** Release the state setup() built. */
    virtual void finish() {}

    /** Peak resident set of the processes that ran cells, MiB. */
    virtual double peakRssMb() const;
    /** Counters of the layers only this workload exercises. */
    virtual LayerCounters layerCounters() const { return {}; }
};

/** The workload named @p name under @p seed (nullptr if unknown). */
std::unique_ptr<Bench> makeBench(const std::string &name,
                                 std::uint64_t seed);

/** Names makeBench accepts. */
std::vector<std::string> benchNames();

/**
 * Run @p cells on the plain path under @p seed, on kThreads threads.
 * @return results in cell order (throws on a cell failure).
 */
std::vector<ap::RunResult>
runPlainCells(const std::vector<ap::ExperimentSpec> &cells,
              std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_BENCHES_HH
