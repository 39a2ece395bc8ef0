/**
 * @file
 * Shadow page-table management (paper Section III-B).
 *
 * For every shadowed guest process the manager owns a shadow page
 * table built on demand by merging the guest and host tables, keeps it
 * coherent by write-protecting the shadowed parts of the guest page
 * table, and — for agile paging — maintains the switching entries that
 * hand parts of the walk to nested mode.
 *
 * Mode state is tracked per guest-page-table page ("node"): a node is
 * either shadowed (write-protected; stores trap), unsynced (KVM-style
 * temporarily writable leaf, resynced at the next TLB flush), or
 * nested (fully writable; covered by a switching entry in the parent
 * shadow level).
 */

#ifndef AGILEPAGING_VMM_SHADOW_MGR_HH
#define AGILEPAGING_VMM_SHADOW_MGR_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/page_table.hh"
#include "tlb/coherence.hh"
#include "vmm/vmm.hh"
#include "walker/walker.hh"

namespace ap
{

/** Shadowing behaviour knobs. */
struct ShadowConfig
{
    /** KVM-style unsynced leaf pages (Section III-B). */
    bool unsyncEnabled = true;
    /** Hardware optimization 1 (Section IV): the walker writes A/D
     *  bits into all three tables, so shadow fills map writable pages
     *  writable immediately and no AdEmulation traps occur. */
    bool hwOptAd = false;
};

/** Mode state of one guest-page-table page. */
struct GptNode
{
    /** First gVA covered by this PT page. */
    Addr vaBase = 0;
    /** Depth of the entries this page holds (0 = root). */
    unsigned depth = 0;
    /** Covered by nested mode (writable, reached via switching). */
    bool nested = false;
    /** Temporarily writable shadowed leaf (resync pending). */
    bool unsynced = false;
    /** Mediated writes observed this policy interval. */
    std::uint32_t intervalWrites = 0;
    /** Consecutive policy intervals with a clean dirty bit (the
     *  nested=>shadow hysteresis counter). */
    std::uint32_t cleanIntervals = 0;
};

/** Outcome of intercepting one guest page-table write. */
struct GptWriteOutcome
{
    /** The write needed VMM mediation (a trap was charged). */
    bool trapped = false;
    /** The page became unsynced rather than synced in place. */
    bool unsynced = false;
    /** Node state after the write (nullptr if the page is not
     *  shadow-managed at all). */
    GptNode *node = nullptr;
    /** The node's guest frame (valid when node != nullptr). */
    FrameId nodeGframe = 0;
};

/** Result of servicing a shadow page fault. */
enum class ShadowFillResult
{
    /** Shadow path (or switching boundary) installed; retry the walk. */
    Filled,
    /** The guest mapping itself is absent: deliver a guest fault. */
    NeedGuestFault,
};

/**
 * The manager. One instance per VM; tracks every shadowed process.
 */
class ShadowMgr : public stats::StatGroup
{
  public:
    /**
     * @param coh coherence domain to invalidate through on shadow
     *            changes (nullable; every vCPU's caches are reached)
     */
    ShadowMgr(stats::StatGroup *parent, PhysMem &mem, Vmm &vmm,
              const ShadowConfig &cfg, CoherenceDomain *coh);
    ~ShadowMgr();

    /** Per-process bookkeeping (exposed to the agile policy). */
    struct ProcState
    {
        RadixPageTable *gpt = nullptr;
        FrameId gptRootGframe = 0;
        /** Address space of the shadow table (must outlive spt). */
        std::unique_ptr<HostPtSpace> sptSpace;
        std::unique_ptr<RadixPageTable> spt;
        TranslationContext ctx{};
        /** Agile: partial shadowing allowed; plain shadow otherwise. */
        bool agile = false;
        /** Ordered so iteration (policy scans, resync-all) is
         *  insert-history-independent — a snapshot-restored manager
         *  must iterate exactly like the one it was captured from. */
        std::map<FrameId, GptNode> nodes;
        std::vector<FrameId> unsynced;
    };

    /**
     * Begin shadowing a process.
     * @param gpt   the guest page table (frames are guest frames)
     * @param agile enable partial (agile) shadowing
     */
    void registerProcess(ProcId proc, RadixPageTable *gpt,
                         FrameId gpt_root_gframe, bool agile);

    /** Stop shadowing; frees the shadow table. */
    void unregisterProcess(ProcId proc);

    bool hasProcess(ProcId proc) const;

    /** Walker register state for the process. */
    TranslationContext &context(ProcId proc);

    /** Full per-process state (used by policies). */
    ProcState &state(ProcId proc);

    /**
     * Service a shadow page fault at @p va: build the shadow path by
     * merging guest and host tables (charges a ShadowFill trap), or
     * report that the guest mapping is missing.
     */
    ShadowFillResult handleShadowFault(ProcId proc, Addr va);

    /**
     * Intercept a guest write to its page table at (@p va, @p depth)
     * — call *after* the functional update. Traps and syncs if the
     * written page is protected.
     *
     * @param ad_only the write only manipulated accessed/dirty bits
     *        (reference-bit scanning). The VMM recognizes the pattern
     *        from the trapped old/new PTE values and treats it as a
     *        full write burst: reclaim scans rewrite whole PT pages,
     *        so one trap is enough evidence (Section V).
     */
    GptWriteOutcome onGptWrite(ProcId proc, Addr va, unsigned depth,
                               bool ad_only = false);

    /**
     * Guest-initiated TLB flush covering @p va (or everything when
     * @p all). Resyncs unsynced pages (charges a TlbFlush trap when
     * any work is required or @p always_trap is set).
     */
    void onGuestTlbFlush(ProcId proc, bool always_trap);

    /**
     * Targeted INVLPG-style invalidation covering [base, base+len):
     * resyncs only the unsynced PT pages intersecting the range.
     */
    void onGuestInvlpgRange(ProcId proc, Addr base, Addr len);

    /**
     * Guest wrote its page-table pointer to switch to @p proc. Charges
     * a CtxSwitch trap unless the sptr cache hits and no resync work
     * is pending.
     * @return true if a trap was charged.
     */
    bool onCtxSwitchIn(ProcId proc);

    /**
     * @return true if @p va's translation ends in nested mode (its
     * leaf PT page — or an ancestor — is nested, or the whole process
     * runs root-switched). Faults there are delivered directly to the
     * guest, exactly as under nested paging; only shadow-portion
     * faults need VMM mediation.
     */
    bool leafUnderNestedMode(ProcId proc, Addr va);

    /**
     * Refresh the shadow leaf for @p va from the current guest and
     * host tables without charging a trap — used when another handler
     * (e.g. a host COW break) already paid for the exit.
     */
    void refreshLeaf(ProcId proc, Addr va);

    /**
     * Emulate a dirty-bit protection fault: a store hit a page whose
     * shadow entry withheld write permission although the guest grants
     * it. Sets guest dirty, upgrades the shadow entry. Charges an
     * AdEmulation trap (never called when hwOptAd is on).
     */
    void emulateDirtyWrite(ProcId proc, Addr va);

    // ------------------------------------------------------------------
    // Agile mode conversions (driven by core/agile_policy)
    // ------------------------------------------------------------------

    /**
     * Move the guest PT page holding (@p va, @p depth) — and every
     * registered descendant — to nested mode (Section III-C,
     * shadow=>nested). Installs the switching entry; depth 0 engages
     * the root switch. Charges a ModeConvert trap.
     */
    void convertToNested(ProcId proc, Addr va, unsigned depth);

    /**
     * Move the guest PT page holding (@p va, @p depth) back to shadow
     * mode. The paper requires parents before children; the policy
     * enforces that ordering. Charges a ModeConvert trap.
     */
    void convertToShadow(ProcId proc, Addr va, unsigned depth);

    /** Drop the whole shadow table (SHSP nested switch / rebuild). */
    void zapProcess(ProcId proc);

    /**
     * Eagerly (re)build the whole shadow table from the guest and host
     * tables — SHSP's switch-to-shadow step ("switching to shadow mode
     * requires (re)building the entire shadow page table"). No trap is
     * charged here; the caller bills the bulk work.
     * @return entries merged.
     */
    std::uint64_t prefillAll(ProcId proc);

    /**
     * The VMM changed the backing of these guest frames (content-based
     * sharing): drop every shadow leaf derived from them so no stale
     * host frame survives ("the VMM must update the shadow page table
     * on any changes to the host page table", Section III-B).
     */
    void invalidateByGuestFrames(const std::vector<FrameId> &gframes);

    /**
     * The guest freed a page-table page (munmap shrank the table).
     * Drops its node and the shadow entries derived from it so a
     * recycled frame cannot inherit stale mode state.
     */
    void onGptPageFree(ProcId proc, FrameId gframe);

    /** The VMM this manager charges traps against. */
    Vmm &vmm() { return vmm_; }

    /**
     * The VMM rewrote the process's translation registers (e.g.
     * engaged or disengaged shadow mode): cached partial walks for the
     * address space are stale in *mode*, so flush its TLB/PWC state —
     * what a real sptr write does.
     */
    void onModeRegisterWrite(ProcId proc);

    /**
     * Read-and-clear the *hardware-visible* accessed bit of @p va's
     * translation: under shadow paging the walker sets A/D in the
     * shadow table, and the VMM surfaces them to the guest's
     * reference-bit scans (Section III-B).
     * @return true if the shadow entry was accessed since last asked.
     */
    bool consumeShadowAccessed(ProcId proc, Addr va);

    const ShadowConfig &config() const { return cfg_; }

    /** Snapshot support. Guest page tables are owned by the guest OS,
     *  so only their identity travels; @p gpt_resolver maps a pid back
     *  to the restored table on load. */
    void saveState(Serializer &s) const;
    void restoreState(
        Deserializer &d,
        const std::function<RadixPageTable *(ProcId)> &gpt_resolver);

    stats::Scalar fills;
    stats::Scalar syncWrites;
    stats::Scalar unsyncEvents;
    stats::Scalar resyncPages;
    stats::Scalar adEmulations;
    stats::Scalar convertsToNested;
    stats::Scalar convertsToShadow;

  private:
    /** Merge one guest leaf into the shadow table. */
    bool fillLeaf(ProcState &p, Addr va, unsigned depth, Pte &gpte);

    /** Eagerly merge a whole leaf PT page during conversion back to
     *  shadow mode. @return entries merged. */
    std::uint64_t prefillRegion(ProcState &p, FrameId gframe,
                                const GptNode &node);

    /** Re-merge a (previously unsynced) leaf gPT page in place. */
    void resyncLeafPage(ProcState &p, FrameId gframe, GptNode &node);

    /** Resync every unsynced page of @p p; @return pages resynced. */
    std::uint64_t resyncAll(ProcState &p);

    void flushRegion(ProcState &p, Addr base, Addr span);

    PhysMem &mem_;
    Vmm &vmm_;
    ShadowConfig cfg_;
    CoherenceDomain *coh_;

    /** Ordered for the same reason as ProcState::nodes. */
    std::map<ProcId, ProcState> procs_;
};

} // namespace ap

#endif // AGILEPAGING_VMM_SHADOW_MGR_HH
