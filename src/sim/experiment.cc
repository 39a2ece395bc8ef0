/**
 * @file
 * Experiment runner implementation.
 */

#include "sim/experiment.hh"

#include "base/logging.hh"
#include "sim/parallel_runner.hh"
#include "walker/backend.hh"

namespace ap
{

WorkloadParams
defaultParamsFor(const std::string &workload)
{
    WorkloadParams p;
    p.operations = 2'000'000;
    p.seed = 42;
    // Scaled Table V footprints, preserving the suite's ordering.
    if (workload == "astar") {
        p.footprintBytes = 80ull << 20; // 350 MB
    } else if (workload == "gcc") {
        p.footprintBytes = 96ull << 20; // 885 MB
    } else if (workload == "mcf") {
        p.footprintBytes = 160ull << 20; // 1.7 GB
    } else if (workload == "canneal") {
        p.footprintBytes = 96ull << 20; // 780 MB
    } else if (workload == "dedup") {
        p.footprintBytes = 128ull << 20; // 1.4 GB
    } else if (workload == "tigr") {
        p.footprintBytes = 96ull << 20; // 610 MB
    } else if (workload == "graph500") {
        p.footprintBytes = 224ull << 20; // 73 GB
    } else if (workload == "memcached") {
        p.footprintBytes = 224ull << 20; // 75 GB
    } else if (workload == "shootdown_storm") {
        p.footprintBytes = 96ull << 20;
    } else if (workload == "reclaim_scan") {
        p.footprintBytes = 128ull << 20;
    } else if (workload == "page_migration") {
        p.footprintBytes = 96ull << 20;
    } else {
        ap_fatal("unknown workload: ", workload);
    }
    return p;
}

SimConfig
configFor(VirtMode mode, PageSize page_size, const WorkloadParams &params,
          bool hw_opts)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.pageSize = page_size;
    cfg.guestOs.pageSize = page_size;

    // Size memory: guest data space at 2x the footprint (churn slack),
    // host memory at 3x plus table overhead.
    std::uint64_t footprint_frames = params.footprintBytes / kPageBytes;
    cfg.guestDataFrames = footprint_frames * 2 + (1u << 14);
    cfg.guestPtFrames = footprint_frames / 8 + (1u << 12);
    cfg.hostMemFrames = footprint_frames * 3 + (1u << 16);

    if (hw_opts && backendTraits(mode).usesShadowMgr) {
        // The paper's evaluated agile configuration "includes the
        // benefit of hardware optimizations" (Section VII-A); shadow
        // gets the sptr cache too when comparing optimizations, but
        // keeping plain shadow faithful to deployed systems, only
        // agile enables them by default.
        if (mode == VirtMode::Agile)
            cfg.enableHwOpts();
    }
    return cfg;
}

ResolvedSpec
resolveSpec(const ExperimentSpec &spec)
{
    ResolvedSpec r;
    r.params = defaultParamsFor(spec.workload);
    if (spec.operations)
        r.params.operations = spec.operations;
    r.cfg = configFor(spec.mode, spec.pageSize, r.params, spec.hwOpts);
    r.cfg.numVcpus = spec.numVcpus;
    r.cfg.tlbCoherence = spec.tlbCoherence;
    return r;
}

RunResult
runExperiment(const ExperimentSpec &spec)
{
    ResolvedSpec r = resolveSpec(spec);
    Machine machine(r.cfg);
    auto workload = makeWorkload(spec.workload, r.params);
    ap_assert(workload != nullptr, "unknown workload ", spec.workload);
    return machine.run(*workload);
}

std::vector<ExperimentSpec>
figure5Specs(std::uint64_t operations, bool include_range)
{
    std::vector<ExperimentSpec> specs;
    // Keep the default matrix (and its runs hash) byte-identical:
    // the range column is strictly opt-in.
    std::vector<VirtMode> modes = {VirtMode::Native, VirtMode::Nested,
                                   VirtMode::Shadow, VirtMode::Agile};
    if (include_range)
        modes.push_back(VirtMode::Range);
    const PageSize sizes[] = {PageSize::Size4K, PageSize::Size2M};
    for (const std::string &wl : workloadNames()) {
        for (PageSize ps : sizes) {
            for (VirtMode mode : modes) {
                ExperimentSpec spec;
                spec.workload = wl;
                spec.mode = mode;
                spec.pageSize = ps;
                spec.operations = operations;
                specs.push_back(spec);
            }
        }
    }
    return specs;
}

std::vector<RunResult>
runFigure5Matrix(std::uint64_t operations, unsigned jobs)
{
    return runExperiments(figure5Specs(operations), jobs);
}

} // namespace ap
