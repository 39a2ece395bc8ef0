/**
 * @file
 * The guest operating system model.
 *
 * Implements the kernel behaviours the paper's evaluation exercises:
 * demand paging, mmap/munmap with page-table construction and pruning,
 * fork with copy-on-write, transparent huge pages (2 MB), reference-
 * bit scanning under memory pressure (clock reclaim), and TLB
 * shootdowns after PT updates. Every page-table store is routed
 * through the shadow manager's write-interception hook, so the cost
 * difference between nested mode (direct stores) and shadow mode
 * (mediated stores) emerges naturally.
 *
 * The same class also models the *unvirtualized* OS: with a null VMM
 * the process page tables live directly in host memory and translation
 * runs in native mode — the paper's "Base Native" configuration.
 */

#ifndef AGILEPAGING_GUESTOS_GUEST_OS_HH
#define AGILEPAGING_GUESTOS_GUEST_OS_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/rng.hh"
#include "base/types.hh"
#include "guestos/vma.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "tlb/coherence.hh"
#include "vmm/shadow_mgr.hh"
#include "vmm/vmm.hh"
#include "walker/walker.hh"

namespace ap
{

/** Guest-kernel cost and behaviour knobs. */
struct GuestOsConfig
{
    /** Preferred mapping granule; 2 MB enables THP-style mappings. */
    PageSize pageSize = PageSize::Size4K;
    /** Guest kernel cycles to service a page fault (all modes). */
    Cycles pageFaultCost = 800;
    /** Guest kernel cycles to copy one 4 KB page on COW. */
    Cycles cowCopyCost = 1200;
    /** Base guest cycles of an mmap/munmap syscall. */
    Cycles syscallCost = 150;
    /** Guest cycles per page unmapped / scanned. */
    Cycles perPageCost = 20;
};

/** One guest process. */
struct GuestProcess
{
    ProcId pid = 0;
    VirtMode mode = VirtMode::Native;
    std::unique_ptr<PtSpace> ptSpace;
    std::unique_ptr<RadixPageTable> pt;
    AddressSpace as;
    /** Translation registers when the process is not shadow-managed
     *  (native and pure nested modes). */
    TranslationContext ctx;
    /** Clock-algorithm hand: VA where the next reclaim scan resumes. */
    Addr clockHand = 0;
    bool alive = true;
};

/**
 * The kernel.
 */
class GuestOs : public stats::StatGroup
{
  public:
    /**
     * @param vmm  null for the unvirtualized (native) configuration
     * @param smgr null unless shadow-based modes are in use
     * @param coh  coherence domain to shoot down through on PT updates
     *             (nullable; reaches every vCPU's TLB/PWC stack)
     */
    GuestOs(stats::StatGroup *parent, PhysMem &host_mem, Vmm *vmm,
            ShadowMgr *smgr, CoherenceDomain *coh,
            const GuestOsConfig &cfg);
    ~GuestOs();

    /**
     * Invoked after every mediated (trapped) guest PT write; the
     * machine wires this to the agile policy.
     */
    std::function<void(ProcId, Addr, unsigned, const GptWriteOutcome &)>
        onMediatedGptWrite;

    /** Invoked on *every* guest PT write of a virtualized process
     *  (mediated or not) — feeds the SHSP projection model. */
    std::function<void(ProcId, Addr, unsigned)> onAnyGptWrite;

    // ------------------------------------------------------------------
    // Process lifecycle
    // ------------------------------------------------------------------

    /** Create a process running under @p mode. */
    ProcId createProcess(VirtMode mode);

    /** Terminate: unmap everything, free the page table. */
    void exitProcess(ProcId pid);

    /**
     * Terminate without simulating the teardown. Frees the same frames
     * and flushes the same translation state as exitProcess, but in
     * bulk — one pass over the page table's terminals instead of a
     * per-page munmap of every VMA — and charges nothing. Only valid
     * once the process's counters no longer matter (after the
     * measurement delta has been taken or during machine teardown);
     * mid-run process churn must keep using exitProcess so its
     * simulated cost lands in the results.
     */
    void reapProcess(ProcId pid);

    GuestProcess &process(ProcId pid);
    bool hasProcess(ProcId pid) const;

    /** Translation registers for the walker (shadow-managed processes
     *  get the shadow manager's context). */
    TranslationContext &context(ProcId pid);

    /**
     * Clone @p parent: VMAs copied, every present mapping shared
     * copy-on-write (read-only in both tables), TLB flushed.
     * @return the child pid, or 0 on resource exhaustion.
     */
    ProcId fork(ProcId parent);

    // ------------------------------------------------------------------
    // Memory syscalls
    // ------------------------------------------------------------------

    /** Map @p length bytes anywhere. @return base address or 0. */
    Addr mmap(ProcId pid, Addr length, bool writable, VmaKind kind,
              std::uint64_t file_id = 0);

    /** Map at a fixed base (workload-controlled reuse). */
    bool mmapFixed(ProcId pid, Addr base, Addr length, bool writable,
                   VmaKind kind, std::uint64_t file_id = 0);

    /** Unmap [base, base+length): clears PT entries, prunes empty
     *  leaf PT pages, flushes stale translations. */
    void munmap(ProcId pid, Addr base, Addr length);

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    /**
     * Handle a page fault at @p va (demand paging or fault-in after
     * COW). @return false if @p va is not mapped by any VMA.
     */
    bool handlePageFault(ProcId pid, Addr va, bool is_write);

    /**
     * Break guest-level copy-on-write at @p va: private copy, writable
     * mapping, targeted TLB shootdown.
     * @return false if @p va has no COW-able mapping.
     */
    bool handleCowWrite(ProcId pid, Addr va);

    // ------------------------------------------------------------------
    // Memory pressure (Section V)
    // ------------------------------------------------------------------

    /**
     * Clock-algorithm scan: visit up to @p max_pages mapped pages;
     * referenced pages get their accessed bit cleared (a PT write!),
     * unreferenced ones are evicted.
     * @return pages evicted.
     */
    std::uint64_t reclaimScan(ProcId pid, std::uint64_t max_pages);

    // ------------------------------------------------------------------
    // Queries used by the machine's fault decision tree
    // ------------------------------------------------------------------

    /** Guest-stage write permission of the current mapping of @p va. */
    bool guestMappingWritable(ProcId pid, Addr va);
    /** VMA-level write permission. */
    bool vmaWritable(ProcId pid, Addr va);
    /** Guest frame (host frame when native) mapping @p va's page. */
    FrameId leafFrame(ProcId pid, Addr va);

    bool isNative() const { return vmm_ == nullptr; }

    /** Pids of every live process. */
    std::vector<ProcId> livePids() const;

    /** A random currently-mapped virtual address of @p pid (length-
     *  weighted across VMAs); 0 if nothing is mapped. */
    Addr randomMappedVa(ProcId pid, Rng &rng);

    /** Cycles spent inside the guest kernel (identical across modes;
     *  accounted into ideal execution time). */
    Cycles guestCycles() const { return guest_cycles_; }

    /**
     * Snapshot support. Processes are rebuilt with createProcess's
     * exact wiring (PT space, shadow free hook) but without
     * re-registering with the shadow manager — the manager restores
     * its own per-process state, including the guest-table pointers,
     * through its resolver. Restore the VMM/PhysMem first.
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

    stats::Scalar pageFaults;
    stats::Scalar cowBreaks;
    stats::Scalar demandPages;
    stats::Scalar thpMappings;
    stats::Scalar evictions;
    stats::Scalar forks;

  private:
    /** Allocate @p frames data frames (guest frames, or host when
     *  native); contiguous/aligned when frames > 1. @return base. */
    FrameId allocData(std::uint64_t frames);
    void freeMapping(Addr va, const PtMapping &m);
    void setPageContent(const Vma &vma, Addr va, FrameId frame_base,
                        std::uint64_t frames);

    /** Route a PT store through shadow interception + policy hook. */
    void notifyPtWrite(GuestProcess &p, Addr va, unsigned depth,
                       bool ad_only = false);

    /** Guest-visible TLB shootdown of a range (with resync trap),
     *  broadcast to every vCPU and attributed to @p cause. */
    void shootdown(GuestProcess &p, Addr base, Addr len,
                   CoherenceCause cause);

    void refInc(FrameId base);
    /** @return true if the last reference died and frames were freed. */
    bool refDecAndMaybeFree(FrameId base, std::uint64_t frames);

    bool demandPage(GuestProcess &p, const Vma &vma, Addr va,
                    bool is_write);

    PhysMem &host_mem_;
    Vmm *vmm_;
    ShadowMgr *smgr_;
    CoherenceDomain *coh_;
    GuestOsConfig cfg_;

    ProcId next_pid_ = 1;
    std::unordered_map<ProcId, std::unique_ptr<GuestProcess>> procs_;
    /** COW sharing refcounts, keyed by mapping base frame; absent = 1. */
    std::unordered_map<FrameId, std::uint32_t> frame_refs_;
    std::uint64_t anon_content_seq_ = 1;
    Cycles guest_cycles_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_GUESTOS_GUEST_OS_HH
