/**
 * @file
 * The virtual machine monitor.
 *
 * Owns, for one VM: the guest-physical address space (frame allocators
 * and the gPA-to-hPA backing map), the architectural host page table
 * (hPT) the hardware walks in nested mode, trap accounting against the
 * TrapCosts model, host-side content-based page sharing, and the sptr
 * hardware cache of the paper's second optional optimization.
 *
 * Guest-physical layout: frames [1 .. ptFrames] are the page-table
 * region (always backed with 4 KB host mappings); data frames live at
 * [dataBase .. dataBase + dataFrames] with dataBase 2 MB aligned so
 * the VMM can back them with 2 MB host mappings when configured.
 */

#ifndef AGILEPAGING_VMM_VMM_HH
#define AGILEPAGING_VMM_VMM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/frame_alloc.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "tlb/nested_tlb.hh"
#include "vmm/sptr_cache.hh"
#include "vmm/trap_costs.hh"

namespace ap
{

/** VMM configuration knobs. */
struct VmmConfig
{
    /** Guest-physical frames reserved for guest page-table pages. */
    std::uint64_t guestPtFrames = 1 << 16;
    /** Guest-physical frames available for data. */
    std::uint64_t guestDataFrames = 1 << 20;
    /** Granule of host (second-stage) mappings for the data region. */
    PageSize hostPageSize = PageSize::Size4K;
    /** Trap cost model. */
    TrapCosts costs{};
    /** Hardware optimization 2 (Section IV): sptr cache entries
     *  consulted on guest context switches; 0 disables. */
    std::size_t sptrCacheEntries = 0;
};

/**
 * Per-VM hypervisor state and services.
 */
class Vmm : public stats::StatGroup
{
  public:
    /**
     * @param parent stat parent
     * @param mem    host physical memory
     * @param ntlb   nested TLB to invalidate on host-PT changes
     *               (may be nullptr)
     */
    Vmm(stats::StatGroup *parent, PhysMem &mem, const VmmConfig &cfg,
        NestedTlb *ntlb);
    ~Vmm();

    // ------------------------------------------------------------------
    // Guest physical space
    // ------------------------------------------------------------------

    /** Allocate a guest frame for a guest page-table page. The backing
     *  host table frame is created eagerly (the guest OS writes the
     *  page immediately); the hPT mapping is installed too.
     *  @return the guest frame, or 0 when exhausted. */
    FrameId allocGuestPtFrame();

    /** Release a guest PT frame and its backing. */
    void freeGuestPtFrame(FrameId gframe);

    /** Allocate one data guest frame (backing installed lazily at
     *  first hardware touch, i.e. on a host fault).
     *  @return the guest frame, or 0 when exhausted. */
    FrameId allocGuestDataFrame();

    /** Allocate @p n contiguous aligned data guest frames (guest THP).
     *  @return the first guest frame, or 0 when exhausted. */
    FrameId allocGuestDataFrames(std::uint64_t n);

    /** Release a data guest frame (and backing if present). */
    void freeGuestDataFrame(FrameId gframe);

    /** @return true if @p gframe lies in the page-table region. */
    bool isPtRegion(FrameId gframe) const { return gframe <= pt_cap_; }

    /** Host frame currently backing @p gframe (0 if unbacked). */
    FrameId backing(FrameId gframe) const;

    // ------------------------------------------------------------------
    // Host page table (the hardware's second stage)
    // ------------------------------------------------------------------

    RadixPageTable &hostPt() { return *hpt_; }
    const RadixPageTable &hostPt() const { return *hpt_; }
    FrameId hostPtRoot() const { return hpt_->root(); }

    /**
     * Handle a host fault (EPT violation) on @p gpa: allocate backing
     * for the containing frame (or 2 MB group) and install the hPT
     * mapping. Charges a HostFault trap.
     * @return false if host memory is exhausted.
     */
    bool handleHostFault(Addr gpa);

    /** Back a PT-region frame immediately (no trap charge; callers
     *  charge contextually). @return host frame or kNoFrame.
     *
     *  Inline because every functional guest page-table operation
     *  funnels through here (GuestPtSpace::page): the already-backed
     *  case is one load and one branch. */
    FrameId
    ensurePtBacked(FrameId gframe)
    {
        ap_assert(gframe > 0 && isPtRegion(gframe),
                  "not a PT-region frame: ", gframe);
        FrameId hframe =
            gframe < backings_.size() ? backings_[gframe].hframe : 0;
        return hframe ? hframe : backPtSlow(gframe);
    }

    /** Back a data frame immediately (shadow fill resolves backing as
     *  part of the fill, without a separate EPT exit).
     *  @return host frame backing @p gframe, or kNoFrame on OOM. */
    FrameId ensureDataBacked(FrameId gframe);

    /** Record that the guest wrote @p gframe directly (nested-mode PT
     *  page): sets the hPT dirty bit the dirty-scan policy reads. */
    void markGptWriteDirty(FrameId gframe);

    /** Read-and-clear the dirty bit on the backing of @p gframe. */
    bool consumeGptDirty(FrameId gframe);

    /** Set one guest data page's content id (dedup key). */
    void setContent(FrameId gframe, std::uint64_t content_id);

    // ------------------------------------------------------------------
    // Content-based page sharing (Section V)
    // ------------------------------------------------------------------

    /**
     * Scan backed data frames; collapse duplicates (same content id)
     * to one read-only host frame.
     * @param remapped_gframes if non-null, receives every guest frame
     *        whose backing or host write permission changed — the
     *        canonical copy of each duplicate set included (callers
     *        must invalidate shadow entries and TLB entries derived
     *        from the old frames/permissions)
     * @return number of frames reclaimed.
     */
    std::uint64_t sharePages(std::vector<FrameId> *remapped_gframes =
                                 nullptr);

    /**
     * Break host-side COW on a write to @p gframe: new private frame,
     * writable mapping. Charges a HostCow trap.
     * @return false if memory is exhausted.
     */
    bool breakHostCow(FrameId gframe);

    /** @return host-stage write permission for @p gframe's mapping. */
    bool hostWritable(FrameId gframe) const;

    // ------------------------------------------------------------------
    // Traps
    // ------------------------------------------------------------------

    /** Charge one VM exit of kind @p k touching @p entries PTEs. */
    void chargeTrap(TrapKind k, std::uint64_t entries = 0);

    Cycles trapCycles() const { return trap_cycles_; }
    std::uint64_t trapCount(TrapKind k) const;
    std::uint64_t trapCountTotal() const;

    /** The sptr cache (hardware optimization 2); nullptr if disabled. */
    SptrCache *sptrCache() { return sptr_cache_.get(); }

    const VmmConfig &config() const { return cfg_; }
    PhysMem &physMem() { return mem_; }

    /** Guest frame-id allocators (pool observability). */
    const FrameAllocator &ptAllocator() const { return pt_alloc_; }
    const FrameAllocator &dataAllocator() const { return data_alloc_; }

    /** Host frames consumed by this VM's data backings. */
    std::uint64_t backedDataFrames() const { return backed_data_; }

    /**
     * Snapshot support. PhysMem must be restored *before*
     * restoreState() is called: the hPT adopts its restored root
     * in place (the page tree already exists in host memory), so no
     * table page is allocated or freed here. Only the touched prefix
     * of the backing table is written; restore rejects a table longer
     * than the guest-physical space.
     */
    void
    saveState(Serializer &s) const
    {
        s.putMarker(0x204d4d56); // "VMM "
        pt_alloc_.saveState(s);
        data_alloc_.saveState(s);
        s.putU64(hpt_->root());
        s.putU64(hpt_->pageCount());
        s.putPodVector(backings_);
        s.putU64(backed_data_);
        for (std::uint64_t c : trap_counts_)
            s.putU64(c);
        s.putU64(trap_cycles_);
        if (sptr_cache_)
            sptr_cache_->saveState(s);
    }

    void
    restoreState(Deserializer &d)
    {
        d.checkMarker(0x204d4d56);
        pt_alloc_.restoreState(d);
        data_alloc_.restoreState(d);
        FrameId hpt_root = d.getU64();
        std::uint64_t hpt_pages = d.getU64();
        if (!d.ok())
            return;
        hpt_->restoreState(hpt_root, hpt_pages);
        d.getPodVector(backings_);
        if (backings_.size() > backingLimit()) {
            backings_.clear();
            d.fail();
            return;
        }
        backed_data_ = d.getU64();
        for (std::uint64_t &c : trap_counts_)
            c = d.getU64();
        trap_cycles_ = d.getU64();
        if (sptr_cache_)
            sptr_cache_->restoreState(d);
    }

    stats::Scalar trapsTotal;
    stats::Scalar trapCyclesStat;
    stats::Scalar hostFaultsServed;
    stats::Scalar pagesShared;
    stats::Scalar cowBreaks;
    /** Per-cause VM-exit attribution ("trap_<kind>" / same + "_cycles"
     *  per TrapKind): counts sum exactly to trapsTotal and cycles to
     *  trapCyclesStat, so the Section III-C cost model can be checked
     *  empirically per cause rather than assumed in aggregate. */
    std::vector<std::unique_ptr<stats::Scalar>> trapCountByCause;
    std::vector<std::unique_ptr<stats::Scalar>> trapCyclesByCause;
    /** PTEs touched per trap (per-entry handler work, Section III-C). */
    stats::Distribution trapEntriesDist;

  private:
    struct Backing
    {
        FrameId hframe = 0;
        /** Dirty bit the nested-to-shadow dirty-scan policy consumes
         *  (mirrors the hPT leaf dirty bit for PT-region frames). */
        bool dirty = false;
        /** Host mapping is read-only due to sharing. */
        bool shared = false;
        /** Explicit, zeroed padding: the table is saved as raw bytes,
         *  so implicit padding would make images nondeterministic. */
        std::uint8_t pad[6] = {};
        /** Content recorded before the frame was backed. */
        std::uint64_t pendingContent = 0;
    };
    static_assert(sizeof(Backing) == 24, "APSNAP backing layout");

    /** One past the highest guest frame id (PT or data region). */
    std::uint64_t
    backingLimit() const
    {
        return data_base_ + cfg_.guestDataFrames + 1;
    }

    /** Slot of @p gframe, growing the table to reach it. References
     *  into the table are invalidated by the next growing call. */
    Backing &backingSlot(FrameId gframe);
    /** Slot of @p gframe, or null if the table has not reached it. */
    const Backing *backingSlotIfAny(FrameId gframe) const;
    bool backDataFrame(FrameId gframe);
    /** Out-of-line tail of ensurePtBacked (first touch only). */
    FrameId backPtSlow(FrameId gframe);

    PhysMem &mem_;
    VmmConfig cfg_;
    NestedTlb *ntlb_;

    std::uint64_t pt_cap_;
    std::uint64_t data_base_;
    FrameAllocator pt_alloc_;
    FrameAllocator data_alloc_;

    std::unique_ptr<HostPtSpace> hpt_space_;
    std::unique_ptr<RadixPageTable> hpt_;

    /** Guest frame -> backing, grown on first write to a slot up to
     *  backingLimit(); slots past the end are unbacked. */
    std::vector<Backing> backings_;
    std::uint64_t backed_data_ = 0;

    std::array<std::uint64_t, kNumTrapKinds> trap_counts_{};
    Cycles trap_cycles_ = 0;

    std::unique_ptr<SptrCache> sptr_cache_;
};

} // namespace ap

#endif // AGILEPAGING_VMM_VMM_HH
