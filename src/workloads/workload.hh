/**
 * @file
 * Workload interface.
 *
 * A workload is a synthetic guest application that reproduces the
 * memory-system behaviour of one of the paper's Table V benchmarks:
 * its TLB-miss profile (footprint and access pattern) and its page-
 * table-update profile (mmap/munmap churn, COW, forks, reclaim
 * pressure). Workloads talk to the simulated machine through the
 * WorkloadHost interface and are driven one step at a time, so the
 * machine stays in control of scheduling, policy intervals, and cost
 * accounting.
 */

#ifndef AGILEPAGING_WORKLOADS_WORKLOAD_HH
#define AGILEPAGING_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"

namespace ap
{

/**
 * Services the machine provides to a running workload. All addresses
 * are guest virtual addresses of the workload's process.
 */
class WorkloadHost
{
  public:
    virtual ~WorkloadHost() = default;

    /**
     * Map @p length bytes.
     * @param file_backed pages get content determined by (file_id,
     *        offset) and can deduplicate; anonymous pages are unique
     * @return base address (0 on failure)
     */
    virtual Addr mmap(Addr length, bool writable, bool file_backed,
                      std::uint64_t file_id) = 0;

    /**
     * Map at a fixed base (reusing a previously unmapped slot, the way
     * allocators recycle address space). @return success.
     */
    virtual bool mmapAt(Addr base, Addr length, bool writable,
                        bool file_backed, std::uint64_t file_id) = 0;

    /** Unmap a region previously returned by mmap. */
    virtual void munmap(Addr base, Addr length) = 0;

    /** One data access (drives the TLB/walker and costs 1 instr). */
    virtual void access(Addr va, bool write) = 0;

    /** One instruction fetch (exercises the ITLB side). */
    virtual void instrFetch(Addr va) = 0;

    /** Execute @p instructions without memory-system activity. */
    virtual void compute(std::uint64_t instructions) = 0;

    /**
     * Fork a child, context-switch to it, have it write @p touch_pages
     * random mapped pages (breaking COW), exit it, and switch back —
     * the fork/COW episode shape of dedup-style pipelines.
     */
    virtual void forkTouchExit(std::uint64_t touch_pages) = 0;

    /** Guest context switch to a background process and back. */
    virtual void yield() = 0;

    /** Guest memory-pressure tick: clock-scan up to @p max_pages. */
    virtual void reclaimTick(std::uint64_t max_pages) = 0;

    /** VMM content-based page-sharing scan (Section V). */
    virtual void sharePagesScan() = 0;

    /** Deterministic per-run random stream. */
    virtual Rng &rng() = 0;

    // Multi-process calls. Only ConsolidatedWorkload issues them, so a
    // host that never runs one need not implement them (the defaults
    // panic).

    /** Create a guest process and switch to it. @return its pid. */
    virtual ProcId spawnProcess();

    /** Guest context switch (CR3 write) to @p pid; a no-op when
     *  @p pid is already running. */
    virtual void switchTo(ProcId pid);

    /** The running process. A query, like rng(): recorders forward it
     *  and record nothing. */
    virtual ProcId currentProcess() const;
};

/** Size/length knobs shared by all workloads. */
struct WorkloadParams
{
    /** Scaled data footprint (the paper's 350 MB-75 GB, laptop-sized).*/
    std::uint64_t footprintBytes = 32ull << 20;
    /** Total memory operations to issue. */
    std::uint64_t operations = 1'000'000;
    std::uint64_t seed = 42;
};

/**
 * Base class. Subclasses implement the per-benchmark behaviour.
 */
class Workload
{
  public:
    explicit Workload(const WorkloadParams &params) : params_(params) {}
    virtual ~Workload() = default;

    /** Table V benchmark name ("mcf", "memcached", ...). */
    virtual std::string name() const = 0;

    /** Set up the address space (mmaps). */
    virtual void init(WorkloadHost &host) = 0;

    /**
     * Populate phase, run before measurement begins: fault in the
     * working data so the measured region reflects steady state (the
     * paper's real-hardware runs amortize cold faults over minutes of
     * execution; whole-run simulation must fast-forward them).
     * Default: nothing.
     */
    virtual void warmup(WorkloadHost &host) { (void)host; }

    /**
     * Issue roughly one operation.
     * @return false when the workload has completed its run.
     */
    virtual bool step(WorkloadHost &host) = 0;

    /**
     * @return true if warmup() already covers the full fast-forward
     * region (trace replays embed their measurement boundary), so the
     * machine must not fast-forward additional steps.
     */
    virtual bool selfWarmup() const { return false; }

    const WorkloadParams &params() const { return params_; }

  protected:
    /** Touch every page of [base, base+length) once (populate). */
    static void
    touchAll(WorkloadHost &host, Addr base, Addr length, bool write)
    {
        for (Addr off = 0; off < length; off += kPageBytes)
            host.access(base + off, write);
    }

    WorkloadParams params_;
};

/** All Table V benchmark names, in the paper's Figure 5 order. */
std::vector<std::string> workloadNames();

/**
 * Instantiate a workload by Table V name.
 * @return nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

} // namespace ap

#endif // AGILEPAGING_WORKLOADS_WORKLOAD_HH
