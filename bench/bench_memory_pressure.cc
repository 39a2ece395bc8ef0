/**
 * @file
 * The paper's Section V memory-pressure scenario: "When free memory is
 * scarce, a guest OS will frequently scan and clear the referenced
 * bits of page tables looking for pages to reclaim. With shadow
 * paging, this scanning causes VMtraps... With agile paging, though,
 * the VMM detects the page-table writes to clear referenced bits and
 * converts leaf-level page tables to nested mode to avoid the
 * VMtraps."
 *
 * Sweeps reclaim-scan intensity on a memcached-style workload and
 * reports the VMM-intervention overhead per technique. The event
 * stream per scan rate is mode-independent, so the three techniques
 * share one recorded trace per rate, and the snapshot cache lets
 * repeated invocations (--snapshot-dir) skip warmup entirely.
 */

#include <cstdio>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/machine.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ap;

/** memcached-like accesses plus a configurable reclaim-scan rate. */
class PressureWorkload : public Workload
{
  public:
    PressureWorkload(const WorkloadParams &params, double scan_chance)
        : Workload(params), scan_chance_(scan_chance)
    {
    }

    std::string name() const override { return "pressure"; }

    void
    init(WorkloadHost &host) override
    {
        arena_ = host.mmap(params_.footprintBytes, true, false, 0);
    }

    void
    warmup(WorkloadHost &host) override
    {
        touchAll(host, arena_, params_.footprintBytes, true);
    }

    bool
    step(WorkloadHost &host) override
    {
        Rng &rng = host.rng();
        if (rng.chance(scan_chance_)) {
            host.reclaimTick(256);
        } else if (rng.chance(0.01)) {
            host.access(arena_ + rng.nextBelow(params_.footprintBytes),
                        rng.chance(0.3));
        } else {
            host.access(arena_ + rng.nextBelow(1u << 20),
                        rng.chance(0.3));
        }
        return ++ops_ < params_.operations;
    }

  private:
    double scan_chance_;
    Addr arena_ = 0;
    std::uint64_t ops_ = 0;
};

double
vmmOverhead(CellEngine &engine, VirtMode mode, double scan_chance,
            const BenchOptions &opt)
{
    WorkloadParams params;
    params.footprintBytes = 64ull << 20;
    params.operations = opt.ops;
    if (opt.seedSet)
        params.seed = opt.seed;
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = (64ull << 20) / kPageBytes * 3;
    cfg.guestDataFrames = (64ull << 20) / kPageBytes * 2;
    cfg.guestPtFrames = 1 << 13;
    if (mode == VirtMode::Agile)
        cfg.enableHwOpts();
    PressureWorkload w(params, scan_chance);
    // The scan rate shapes the stream, so it must be part of the key.
    char name[48];
    std::snprintf(name, sizeof(name), "pressure@%g", scan_chance);
    Machine machine(cfg);
    return engine.run(name, w, machine).vmmOverhead();
}

} // namespace

int
main(int argc, char **argv)
{
    ap::setQuietLogging(true);
    ap::BenchOptions opt(500'000);
    for (int i = 1; i < argc; ++i) {
        if (!opt.consume(argc, argv, i))
            opt.reject(argv, i, "");
    }

    ap::CellEngine engine = opt.engine();

    std::printf("Memory-pressure sweep (Section V): VMM overhead vs "
                "reclaim-scan rate\n\n");
    std::printf("%-18s %10s %10s %10s\n", "scan chance/op", "nested",
                "shadow", "agile");
    for (double chance : {0.0, 1e-5, 5e-5, 2e-4, 1e-3}) {
        std::printf(
            "%-18g %9.1f%% %9.1f%% %9.1f%%\n", chance,
            vmmOverhead(engine, ap::VirtMode::Nested, chance, opt) * 100,
            vmmOverhead(engine, ap::VirtMode::Shadow, chance, opt) * 100,
            vmmOverhead(engine, ap::VirtMode::Agile, chance, opt) * 100);
    }
    std::printf("\nShadow's VMM bill grows with scan rate (every "
                "reference-bit clear traps);\nagile converts the "
                "scanned leaf PT pages to nested mode and stays flat.\n");
    ap::printEngineCounters(engine);
    return 0;
}
