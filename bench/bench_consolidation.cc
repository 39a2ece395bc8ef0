/**
 * @file
 * Consolidation experiment: pairs of Table V workloads sharing one VM
 * under round-robin scheduling — the cloud-consolidation scenario the
 * paper's introduction motivates. Shows how frequent guest context
 * switches shift the technique ranking and how the sptr cache
 * (Section IV) restores agile's advantage.
 *
 * The interleaved event stream of a pair is mode-independent, so the
 * first technique records per-slot scheduler traces and the other
 * three replay them. With --snapshot-dir, the traces and each cell's
 * warm-boundary machine image persist across invocations: a repeat
 * run resumes every cell directly at the measurement boundary.
 */

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "bench_common.hh"
#include "sim/experiment.hh"
#include "sim/scheduler.hh"
#include "sim/snapshot.hh"
#include "trace/trace.hh"

namespace
{

using namespace ap;

constexpr std::uint64_t kQuantum = 2'000;

/** Scheduler traces for one pair, shared across the pair's four
 *  technique cells. */
struct PairTraces
{
    Trace a, b;
    bool ready = false;
};

std::string
tracePath(const BenchOptions &opt, const std::string &a,
          const std::string &b, const WorkloadParams &pa,
          const WorkloadParams &pb, int slot)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "/consol_%s+%s_o%llu_s%llux%llu_q%llu_p%u_%d.aptrace",
                  a.c_str(), b.c_str(),
                  (unsigned long long)pa.operations,
                  (unsigned long long)pa.seed,
                  (unsigned long long)pb.seed,
                  (unsigned long long)kQuantum,
                  unsigned(opt.pageSize == PageSize::Size2M ? 2 : 4),
                  slot);
    return opt.snapshotDir + buf;
}

ConsolidationResult
runCell(const std::string &a, const std::string &b, VirtMode mode,
        bool hw_opts, const BenchOptions &opt, PairTraces &shared,
        SnapshotCache &snaps)
{
    WorkloadParams pa = defaultParamsFor(a);
    WorkloadParams pb = defaultParamsFor(b);
    pa.footprintBytes /= 2;
    pb.footprintBytes /= 2;
    pa.operations = pb.operations = opt.ops;
    if (opt.seedSet) {
        pa.seed = opt.seed;
        pb.seed = opt.seed + 1;
    }
    // Size the machine for both footprints.
    WorkloadParams sizing = pa;
    sizing.footprintBytes = pa.footprintBytes + pb.footprintBytes;
    SimConfig cfg = configFor(mode, opt.pageSize, sizing, hw_opts);
    Machine machine(cfg);
    Scheduler sched(machine, kQuantum);

    if (!shared.ready && !opt.snapshotDir.empty() &&
        readTraceFile(tracePath(opt, a, b, pa, pb, 0), shared.a) &&
        readTraceFile(tracePath(opt, a, b, pa, pb, 1), shared.b)) {
        shared.ready = true;
    }

    SnapshotKey key;
    key.workload = "consolidated:" + a + "+" + b;
    key.operations = opt.ops;
    key.seed = pa.seed;
    key.footprintBytes = sizing.footprintBytes;
    key.configDigest = simConfigDigest(cfg);

    if (!shared.ready) {
        // First technique of the pair: record the interleaved streams.
        auto wa = makeWorkload(a, pa);
        auto wb = makeWorkload(b, pb);
        ap_assert(wa && wb, "unknown workload in pair");
        sched.addRecorded(*wa, shared.a);
        sched.addRecorded(*wb, shared.b);
        sched.warmup();
        snaps.obtain(key, [&] { return captureSnapshot(machine); });
        ConsolidationResult r = sched.runMeasured();
        shared.ready = true;
        if (!opt.snapshotDir.empty()) {
            writeTraceFile(shared.a, tracePath(opt, a, b, pa, pb, 0));
            writeTraceFile(shared.b, tracePath(opt, a, b, pa, pb, 1));
        }
        return r;
    }

    sched.addReplay(shared.a);
    sched.addReplay(shared.b);
    bool warmed = false;
    SnapshotPtr snap = snaps.obtain(key, [&] {
        sched.warmup();
        warmed = true;
        return captureSnapshot(machine);
    });
    if (!warmed) {
        bool ok = sched.resumeFromSnapshot(*snap);
        ap_assert(ok, "stale consolidation snapshot for ", key.workload);
    }
    return sched.runMeasured();
}

void
row(const std::string &a, const std::string &b, const BenchOptions &opt,
    SnapshotCache &snaps)
{
    std::printf("%-22s", (a + "+" + b).c_str());
    struct
    {
        VirtMode mode;
        bool hw;
    } configs[] = {{VirtMode::Nested, false},
                   {VirtMode::Shadow, false},
                   {VirtMode::Agile, false},
                   {VirtMode::Agile, true}};
    PairTraces shared;
    for (auto &c : configs) {
        ConsolidationResult r =
            runCell(a, b, c.mode, c.hw, opt, shared, snaps);
        std::printf(" %9.1f%%", r.machine.totalOverhead() * 100);
    }
    std::printf("\n");
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

    ap::SnapshotCache snaps(opt.snapshotDir);
    snaps.setByteBudget(opt.snapshotPoolBytes());

    std::printf("Consolidated pairs (round-robin, 2k-step quanta); "
                "total overhead per technique\n\n");
    std::printf("%-22s %10s %10s %10s %10s\n", "pair", "nested",
                "shadow", "agile", "agile+hw");
    row("graph500", "memcached", opt, snaps);
    row("mcf", "dedup", opt, snaps);
    row("canneal", "gcc", opt, snaps);
    std::printf("\nThe hardware sptr cache removes the per-quantum "
                "context-switch traps that\notherwise erode agile's "
                "advantage under consolidation (Section IV).\n");
    std::printf("[snapshots: %llu captured, %llu from disk]\n",
                (unsigned long long)snaps.captures(),
                (unsigned long long)snaps.diskLoads());
    return 0;
}
