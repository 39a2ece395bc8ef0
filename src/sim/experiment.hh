/**
 * @file
 * Experiment definitions: the (workload x technique x page size)
 * matrix of the paper's evaluation, with laptop-scaled workload
 * parameters and machine sizing.
 */

#ifndef AGILEPAGING_SIM_EXPERIMENT_HH
#define AGILEPAGING_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace ap
{

/** One cell of the evaluation matrix. */
struct ExperimentSpec
{
    std::string workload;
    VirtMode mode = VirtMode::Agile;
    PageSize pageSize = PageSize::Size4K;
    /** 0 = use the workload's default operation count. */
    std::uint64_t operations = 0;
    /** Apply the paper's optional hardware optimizations to
     *  shadow-based techniques (the evaluated agile configuration). */
    bool hwOpts = true;
    /** vCPUs in the simulated guest (1 = the classic matrix). */
    unsigned numVcpus = 1;
    /** Shootdown cost model when numVcpus > 1. */
    TlbCoherence tlbCoherence = TlbCoherence::Software;
};

/**
 * Default (scaled) parameters for a Table V workload. Footprints keep
 * the paper's ordering (graph500/memcached largest, astar smallest) at
 * roughly 1/1000 scale so runs complete on a laptop.
 */
WorkloadParams defaultParamsFor(const std::string &workload);

/**
 * A machine configuration sized for @p params under @p mode /
 * @p page_size, with the evaluated policy defaults.
 */
SimConfig configFor(VirtMode mode, PageSize page_size,
                    const WorkloadParams &params, bool hw_opts = true);

/** The workload parameters and machine config one spec resolves to. */
struct ResolvedSpec
{
    WorkloadParams params;
    SimConfig cfg;
};

/**
 * Resolve @p spec: the workload's default parameters (with the spec's
 * operation count, if set) and configFor's machine, plus the spec's
 * vCPU count and coherence model.
 */
ResolvedSpec resolveSpec(const ExperimentSpec &spec);

/** Run one cell of the matrix. */
RunResult runExperiment(const ExperimentSpec &spec);

/**
 * Pluggable per-cell runner. runExperiments takes one of these so a
 * higher layer can substitute a different execution strategy for a
 * cell — notably CellEngine in trace/ (which sim/ cannot depend on
 * directly). An empty function means runExperiment. Must be safe to
 * call concurrently for distinct cells.
 */
using CellFn = std::function<RunResult(const ExperimentSpec &)>;

/**
 * The cells of the Figure 5 matrix: every Table V workload under
 * {Native, Nested, Shadow, Agile} x {4K, 2M}, in Figure 5 order.
 * @param operations 0 = workload defaults
 * @param include_range also sweep VirtMode::Range as a fifth column
 *        (opt-in so the classic matrix stays bit-identical)
 */
std::vector<ExperimentSpec> figure5Specs(std::uint64_t operations = 0,
                                         bool include_range = false);

/**
 * Run the full Figure 5 matrix.
 * @param operations 0 = workload defaults
 * @param jobs worker threads (1 = serial, 0 = hardware concurrency);
 *        results are bit-identical regardless of @p jobs
 */
std::vector<RunResult> runFigure5Matrix(std::uint64_t operations = 0,
                                        unsigned jobs = 1);

} // namespace ap

#endif // AGILEPAGING_SIM_EXPERIMENT_HH
