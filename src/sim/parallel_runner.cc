/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "sim/parallel_runner.hh"

#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "base/debug.hh"

namespace ap
{

unsigned
effectiveJobs(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<std::size_t>
streamGroups(const std::vector<ExperimentSpec> &specs)
{
    std::map<std::tuple<std::string, PageSize, std::uint64_t>,
             std::size_t>
        first;
    std::vector<std::size_t> group(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &s = specs[i];
        group[i] =
            first.try_emplace({s.workload, s.pageSize, s.operations}, i)
                .first->second;
    }
    return group;
}

std::vector<RunResult>
runExperiments(const std::vector<ExperimentSpec> &specs, unsigned jobs,
               const CellFn &cell)
{
    // Force the one lazy global (the AP_DEBUG flag parse) before any
    // worker can race to it.
    debug::initFromEnvironment();
    // Each group's first cell, then the rest, both in input order.
    std::vector<std::size_t> group = streamGroups(specs);
    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_partition(order.begin(), order.end(),
                          [&](std::size_t i) { return group[i] == i; });

    std::vector<RunResult> results(specs.size());
    parallelFor(order.size(), jobs, [&](std::size_t k) {
        const ExperimentSpec &spec = specs[order[k]];
        results[order[k]] = cell ? cell(spec) : runExperiment(spec);
    });
    return results;
}

} // namespace ap
