/**
 * @file
 * The simulated machine: one core (TLB hierarchy, page-walk caches,
 * hardware walker) plus the software stack for the configured
 * virtualization mode (VMM, shadow manager, agile policy or SHSP
 * controller, guest OS). Drives workloads and produces the
 * measurements every bench consumes.
 */

#ifndef AGILEPAGING_SIM_MACHINE_HH
#define AGILEPAGING_SIM_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/serialize.hh"
#include "base/stats.hh"
#include "core/agile_policy.hh"
#include "core/range_backend.hh"
#include "guestos/guest_os.hh"
#include "sim/config.hh"
#include "tlb/nested_tlb.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb_hierarchy.hh"
#include "trace/walk_trace.hh"
#include "vmm/shadow_mgr.hh"
#include "vmm/shsp.hh"
#include "vmm/vmm.hh"
#include "walker/walker.hh"
#include "workloads/workload.hh"

namespace ap
{

/** Aggregate results of one workload run (one Fig. 5 bar). */
struct RunResult
{
    std::string workload;
    VirtMode mode = VirtMode::Native;
    PageSize pageSize = PageSize::Size4K;

    /** Instructions executed (memory ops + compute). */
    std::uint64_t instructions = 0;
    /** Ideal cycles: instruction execution plus guest-kernel work —
     *  the paper's E_ideal denominator (Table IV). */
    Cycles idealCycles = 0;
    /** Cycles added by address translation (walk refs + L2-TLB hits).*/
    Cycles walkCycles = 0;
    /** Cycles added by VMM interventions. */
    Cycles trapCycles = 0;

    std::uint64_t tlbMisses = 0;
    std::uint64_t walks = 0;
    std::uint64_t traps = 0;
    std::uint64_t guestPageFaults = 0;
    double avgWalkRefs = 0.0;
    /** Fraction of successful walks per Table VI coverage class. */
    double coverage[6] = {0, 0, 0, 0, 0, 0};
    /** Per-kind trap counts (indexed by TrapKind). */
    std::uint64_t trapByKind[kNumTrapKinds] = {};

    /** vCPUs the run executed on (1 = the classic machine). */
    std::uint32_t numVcpus = 1;
    /** Cycles added by translation-coherence traffic (0 at 1 vCPU). */
    Cycles coherenceCycles = 0;
    /** Shootdowns broadcast to remote vCPUs. */
    std::uint64_t shootdowns = 0;
    /** Per-remote-vCPU invalidations delivered. */
    std::uint64_t remoteInvalidations = 0;
    /** Shootdowns by cause (indexed by CoherenceCause). */
    std::uint64_t shootdownsByCause[kNumCoherenceCauses] = {};

    /** Range backend: walks translated by a segment register. Always
     *  0 for the paging backends. */
    std::uint64_t segmentHits = 0;
    /** Range backend: segment installs that evicted a live register. */
    std::uint64_t segmentSpills = 0;
    /** Range backend: segments dropped by coherence/validation. */
    std::uint64_t segmentInvalidations = 0;

    /** Raw counters used to compute deltas between snapshots. */
    double rawRefsTotal = 0;
    double rawCoverage[6] = {0, 0, 0, 0, 0, 0};

    double
    walkOverhead() const
    {
        return idealCycles ? double(walkCycles) / idealCycles : 0.0;
    }

    double
    vmmOverhead() const
    {
        return idealCycles ? double(trapCycles) / idealCycles : 0.0;
    }

    double
    coherenceOverhead() const
    {
        return idealCycles ? double(coherenceCycles) / idealCycles : 0.0;
    }

    double
    totalOverhead() const
    {
        return walkOverhead() + vmmOverhead() + coherenceOverhead();
    }

    /** Execution time relative to overhead-free execution. */
    double slowdown() const { return 1.0 + totalOverhead(); }
};

/**
 * The machine.
 */
class Machine : public stats::StatGroup, public WorkloadHost
{
  public:
    explicit Machine(const SimConfig &cfg);
    ~Machine() override;

    /** Run @p workload to completion in a fresh process. */
    RunResult run(Workload &workload);

    /**
     * The warmup half of run(): spawn a process, init the workload,
     * fast-forward, and run the unmeasured fraction of its steps.
     * After this returns the machine sits exactly at the measurement
     * boundary — the state a MachineSnapshot captures.
     * @return the spawned pid.
     */
    ProcId runWarmup(Workload &workload);

    /**
     * The measured half of run(): take the baseline, drain the
     * remaining steps, and exit the process. Valid after runWarmup()
     * on the same machine, or after restoring a snapshot taken at the
     * boundary (the workload must then be positioned there too, e.g.
     * BatchReplayWorkload::resumeAtBoundary).
     */
    RunResult runMeasured(Workload &workload);

    /**
     * Snapshot support: serialize every piece of machine state that
     * can influence subsequent simulation — memory, TLBs/PWC/nTLB,
     * VMM, shadow manager, guest OS, RNG streams, counters, and the
     * whole stats tree. restoreState() must target a newly built
     * Machine constructed with an identical SimConfig.
     * @return false, reading nothing, if the machine has already run
     * (spawned a process or counted an instruction); false (with
     * unusable state) if the stream is corrupt or from a mismatched
     * config.
     */
    void saveState(Serializer &s) const;
    bool restoreState(Deserializer &d);

    // ------------------------------------------------------------------
    // Direct driving API (examples, tests, microbenches)
    // ------------------------------------------------------------------

    /** Create a process in the configured mode and switch to it. */
    ProcId spawnProcess() override;

    /** Switch the running process (guest CR3 write). */
    void switchTo(ProcId pid) override;

    /** Access @p va from the current process. */
    void touch(Addr va, bool write, bool instr = false);

    /**
     * Batched replay fast path: drain @p count data/instruction
     * accesses from SoA arrays, starting at index @p begin. Bit i of
     * @p write_bits / @p instr_bits classifies vas[i]. Every counter
     * (instructions, TLB stats, walks, traps, policy intervals) ends up
     * bit-identical to calling access()/instrFetch() one event at a
     * time; the speed comes from skipping per-event virtual dispatch
     * and from a last-translation filter that proves consecutive
     * same-page probes would hit the same (MRU) L1 entry.
     */
    void runAccessBatch(const Addr *vas, const std::uint64_t *write_bits,
                        const std::uint64_t *instr_bits,
                        std::size_t begin, std::size_t count);

    ProcId currentProcess() const override { return current_; }

    GuestOs &guestOs() { return *guest_os_; }
    /** Raw host memory (the invariant checker walks tables directly). */
    PhysMem &physMem() { return mem_; }
    Vmm *vmm() { return vmm_.get(); }
    ShadowMgr *shadowMgr() { return smgr_.get(); }
    /** The translation backend every walker dispatches through. */
    TranslationBackend &backend() { return *backend_; }
    /** The range backend, or nullptr unless mode == Range (the
     *  invariant checker sweeps its segment files directly). */
    RangeBackend *rangeBackend() { return range_backend_.get(); }
    const RangeBackend *rangeBackend() const
    {
        return range_backend_.get();
    }
    Walker &walker() { return *walker_; }
    TlbHierarchy &tlb() { return *tlb_; }
    const SimConfig &config() const { return cfg_; }

    /** vCPU count (== config().numVcpus). */
    unsigned numVcpus() const { return cfg_.numVcpus; }
    /** vCPU currently holding the deterministic schedule. */
    unsigned activeVcpu() const { return active_vcpu_; }
    /** Per-vCPU translation stacks (0 = the classic members). */
    TlbHierarchy &tlbOf(unsigned vcpu);
    PageWalkCache &pwcOf(unsigned vcpu);
    /** The shared shootdown fabric. */
    CoherenceDomain &coherence() { return *coh_; }
    const CoherenceDomain &coherence() const { return *coh_; }

    /**
     * Start recording one WalkTraceRecord per serviced TLB miss into a
     * bounded ring of @p capacity records. run() clears the ring at its
     * measurement boundary, so after a run the trace covers exactly the
     * measured region (and summarizing it reproduces the RunResult's
     * Table VI coverage bit-identically when nothing was dropped).
     */
    void enableWalkTrace(std::size_t capacity);

    /** The walk-trace ring, or nullptr when tracing is off. */
    WalkTraceBuffer *walkTrace() { return walk_trace_.get(); }
    const WalkTraceBuffer *walkTrace() const { return walk_trace_.get(); }

    /** Snapshot current counters into a RunResult. */
    RunResult snapshot(const std::string &workload_name) const;

    /** Counter difference end - start (derived fields recomputed). */
    static RunResult delta(const RunResult &end, const RunResult &start);

    // ------------------------------------------------------------------
    // WorkloadHost interface
    // ------------------------------------------------------------------

    Addr mmap(Addr length, bool writable, bool file_backed,
              std::uint64_t file_id) override;
    bool mmapAt(Addr base, Addr length, bool writable, bool file_backed,
                std::uint64_t file_id) override;
    void munmap(Addr base, Addr length) override;
    void access(Addr va, bool write) override;
    void instrFetch(Addr va) override;
    void compute(std::uint64_t instructions) override;
    void forkTouchExit(std::uint64_t touch_pages) override;
    void yield() override;
    void reclaimTick(std::uint64_t max_pages) override;
    void sharePagesScan() override;
    Rng &rng() override { return rng_; }

    stats::Formula instructionsStat;
    stats::Formula walkCyclesStat;
    stats::Scalar l2HitCyclesStat;
    stats::Scalar protFaults;
    /** Guest frame-id allocator recycling (0 when running native). */
    stats::Formula guestPtFrameRecycles;
    stats::Formula guestPtFrameHighWater;
    stats::Formula guestDataFrameRecycles;
    stats::Formula guestDataFrameHighWater;

  private:
    void doAccess(Addr va, bool write, bool instr);

    /**
     * The TLB-probe / fault-servicing part of an access (everything in
     * doAccess except the instruction charge and the interval tick).
     * Updates the last-translation filter slot for the stream kind.
     */
    void accessSlow(Addr va, bool write, bool instr);

    /**
     * The L0 slot mask for a translation of granule @p size that just
     * served @p va: TlbHierarchy::l1HitMask, or 0 (never filter) under
     * verifyTranslations, which checks every access.
     */
    Addr l0Mask(Addr va, ProcId pid, bool instr, PageSize size);

    /** Resolve a write hitting a non-writable translation. */
    void resolveProtection(ProcId pid, Addr va);

    /** Fault-servicing walk loop; returns the final good result. */
    WalkResult translate(ProcId pid, Addr va, bool write);

    /** Append one trace record for a serviced miss (tracing on). */
    void recordWalkTrace(
        ProcId pid, Addr va, bool write, bool instr, const WalkResult &r,
        const std::array<std::uint64_t, kNumTrapKinds> &traps_before);

    /**
     * Drain one access range on the active vCPU's stack (no rotation
     * inside): per access, the last-translation filter or accessSlow.
     */
    void runBatchRange(const Addr *vas, const std::uint64_t *write_bits,
                       const std::uint64_t *instr_bits,
                       std::size_t begin, std::size_t count);

    /** Interval bookkeeping: policy/SHSP ticks. */
    void maybeInterval();

    bool shadowed(ProcId pid) const;

    void verifyAgainstFunctional(ProcId pid, Addr va, FrameId got);

    SimConfig cfg_;
    /** Workload-visible random stream (WorkloadHost::rng()). */
    Rng rng_;
    /**
     * Machine-internal random stream (forkTouchExit / yield page
     * picks). Kept separate from the workload stream so the machine's
     * draws are a pure function of the event sequence: a trace replay,
     * which issues the identical events but no workload draws, then
     * reproduces a generated run bit-for-bit.
     */
    Rng internal_rng_;

    /**
     * Last-translation (L0) filter slot: the result of the most recent
     * successful access of one stream kind (data or instruction). While
     * no flush intervened (generation check) the entry is provably the
     * MRU way of its L1 set, so a re-probe inside the mask (the entry's
     * page, or just the 4K page when finer L1 entries share it; see
     * l0Mask) must hit it. mask == 0 means invalid.
     */
    struct LastXlat
    {
        Addr va = 0;
        Addr mask = 0;
        ProcId asid = 0;
        PageSize size = PageSize::Size4K;
        bool writable = false;
        bool dirty = false;
        std::uint64_t gen = 0;
    };

    /**
     * The L0 filter check, shared by doAccess and the batch loop: true
     * when an access of @p va on the stream whose slot is @p l0 would
     * hit that slot's entry and take the same early-outs, so
     * countFilteredL1Hit can stand in for the probe. That holds inside
     * the slot's mask (see l0Mask) for the same ASID with nothing
     * flushed since (@p gen is the current flush generation), and for
     * a store when the entry is writable and dirty. Every event that
     * invalidates a cached translation bumps the flush generation, and
     * every fill or probe of the stream's L1 rewrites the slot.
     */
    bool
    l0Hit(const LastXlat &l0, Addr va, bool write, std::uint64_t gen) const
    {
        return l0.mask != 0 && ((va ^ l0.va) & l0.mask) == 0 &&
               l0.asid == current_ && l0.gen == gen &&
               (!write || (l0.writable && l0.dirty));
    }

    /**
     * One extra vCPU's private translation stack (vCPU 0 uses the
     * machine's classic tlb_/pwc_/walker_/l0_ members, so its stat
     * names — and therefore a 1-vCPU machine's output — are unchanged).
     * Extra stacks group their stats under "vcpu1", "vcpu2", ...
     */
    struct VcpuStack
    {
        std::unique_ptr<stats::StatGroup> group;
        std::unique_ptr<TlbHierarchy> tlb;
        std::unique_ptr<PageWalkCache> pwc;
        std::unique_ptr<Walker> walker;
        LastXlat l0[2];
    };

    /** Re-point the active-stack aliases at @p vcpu's structures. */
    void setActiveVcpu(unsigned vcpu);

    PhysMem mem_;
    std::unique_ptr<TlbHierarchy> tlb_;
    std::unique_ptr<PageWalkCache> pwc_;
    std::unique_ptr<NestedTlb> ntlb_;
    std::unique_ptr<Walker> walker_;
    std::unique_ptr<CoherenceDomain> coh_;
    /** vCPUs 1..N-1; empty on the classic 1-vCPU machine. */
    std::vector<std::unique_ptr<VcpuStack>> extra_vcpus_;
    /** The range backend, owned in Range mode (null for the modes
     *  served by the shared builtinBackend singletons). */
    std::unique_ptr<RangeBackend> range_backend_;
    /** The backend in use (range_backend_ or a shared singleton). */
    TranslationBackend *backend_ = nullptr;
    std::unique_ptr<Vmm> vmm_;
    std::unique_ptr<ShadowMgr> smgr_;
    std::unique_ptr<AgilePolicy> policy_;
    std::unique_ptr<ShspController> shsp_;
    std::unique_ptr<GuestOs> guest_os_;

    ProcId current_ = 0;
    ProcId background_ = 0;

    /** Pid spawned by runWarmup (runMeasured exits it). */
    ProcId run_pid_ = 0;
    /** The workload finished inside the warmup loop. */
    bool warm_exhausted_ = false;

    /** [0] = data stream, [1] = instruction stream. */
    LastXlat l0_[2];

    /**
     * Active-vCPU aliases: the access path reads these instead of the
     * owning pointers so vCPU rotation is a four-pointer swap. They
     * always point at vCPU active_vcpu_'s stack (vCPU 0 = the classic
     * members above/below).
     */
    TlbHierarchy *atlb_ = nullptr;
    PageWalkCache *apwc_ = nullptr;
    Walker *awalker_ = nullptr;
    LastXlat *al0_ = nullptr;

    unsigned active_vcpu_ = 0;
    /** Accesses left before the round-robin schedule rotates. */
    std::uint64_t vcpu_quantum_left_ = 0;

    /** Per-miss event trace (allocated by enableWalkTrace). */
    std::unique_ptr<WalkTraceBuffer> walk_trace_;
    /** Faulted walk attempts the last translate() serviced. */
    unsigned last_translate_faults_ = 0;

    std::uint64_t instructions_ = 0;
    Cycles walk_cycles_ = 0;
    std::uint64_t tlb_misses_ = 0;

    Tick next_interval_ = 0;
    // Interval deltas for policy/SHSP decisions.
    Cycles interval_walk_cycles_ = 0;
    Cycles interval_trap_cycles_base_ = 0;
    std::array<std::uint64_t, kNumTrapKinds> interval_trap_counts_{};
    std::uint64_t interval_gpt_writes_ = 0;
    std::uint64_t interval_start_ops_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_SIM_MACHINE_HH
