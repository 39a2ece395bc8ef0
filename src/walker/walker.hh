/**
 * @file
 * The hardware page-table walker.
 *
 * Implements the four walk state machines of the paper:
 *   - native 1D walk            (Fig. 2a)
 *   - nested 2D walk            (Fig. 2b)
 *   - shadow 1D walk            (Fig. 2c)
 *   - agile walk with per-entry switching (Fig. 4)
 *
 * Shadow paging is the degenerate agile walk in which no entry carries
 * the switching bit, so one state machine serves both. Every entry the
 * walker reads is charged as one memory reference; the page-walk caches
 * and the nested TLB remove references exactly where real MMU caches
 * would.
 */

#ifndef AGILEPAGING_WALKER_WALKER_HH
#define AGILEPAGING_WALKER_WALKER_HH

#include <optional>

#include "base/stats.hh"
#include "base/types.hh"
#include "mem/phys_mem.hh"
#include "tlb/nested_tlb.hh"
#include "tlb/pwc.hh"
#include "walker/walk_result.hh"

namespace ap
{

class TranslationBackend;

/**
 * Architectural register state the walker consults for one process:
 * the three page-table pointers of agile paging (sptr, gptr, hptr)
 * plus the native pointer for the unvirtualized baseline.
 */
struct TranslationContext
{
    VirtMode mode = VirtMode::Native;
    ProcId asid = 0;

    /** Native mode: root of the process page table (host frame). */
    FrameId nativeRoot = 0;

    /** gptr: root of the guest page table (a *guest* frame id). */
    FrameId gptRoot = 0;
    /** Host frame backing the gPT root (needed to resume in nested
     *  mode without translating gptr; loaded by the VMM). */
    FrameId gptRootBacking = 0;
    /** hptr: root of the host page table (host frame). */
    FrameId hptRoot = 0;
    /** sptr: root of the shadow page table (host frame). */
    FrameId sptRoot = 0;

    /** Agile, sptr==gptr case of Fig. 4: process runs fully nested
     *  including gptr translation (24-reference walks). */
    bool fullNested = false;
    /** Agile: the sptr register itself carries the switching bit, so
     *  every level is nested but gptr translation is skipped
     *  (20-reference walks). */
    bool rootSwitch = false;
};

/**
 * The walker. One instance per simulated core.
 */
class Walker : public stats::StatGroup
{
  public:
    Walker(stats::StatGroup *parent, PhysMem &mem, PageWalkCache &pwc,
           NestedTlb &ntlb);

    /**
     * Perform a full walk for @p va.
     *
     * On success the result carries the effective translation; on a
     * fault it carries enough context for the guest OS or VMM to
     * handle it, after which the machine retries the walk.
     *
     * The returned reference is to a scratch result reused across
     * walks (so the per-walk trace vector never reallocates on the hot
     * path); it is valid until the next walk() call. Copy it to keep.
     *
     * @param is_write the access is a store (sets dirty bits)
     */
    const WalkResult &walk(const TranslationContext &ctx, Addr va,
                           bool is_write);

    /**
     * Attach the machine's translation backend; walks dispatch through
     * it instead of the built-in per-mode singletons. @p vcpu is this
     * walker's vCPU index, passed to the backend so per-vCPU backend
     * state (segment-register files) follows the walking core. Not
     * owned. A walker without a backend (standalone tests) falls back
     * to builtinBackend(ctx.mode).
     */
    void
    setBackend(TranslationBackend *backend, unsigned vcpu)
    {
        backend_ = backend;
        vcpu_ = vcpu;
    }

    /** Enable per-access chronological tracing (Table II bench). */
    void setTracing(bool on) { tracing_ = on; }

    /**
     * Architectural two-stage leaf resolution of @p va: what the
     * nested tables currently say, independent of any cached state.
     * Charges no references, fills no PWC/nTLB entry, and sets no
     * accessed/dirty bit. Backends use it to validate derived mapping
     * state (a segment-register hit) against the truth; the leaf PTE
     * pointer stays mutable so the caller can apply the architectural
     * A/D side effects of a hit itself.
     */
    struct ArchNestedLeaf
    {
        Pte *guestLeaf = nullptr; ///< guest leaf PTE (mutable for A/D)
        FrameId h4k = 0;          ///< host frame of va's exact 4K page
        bool writable = false;    ///< guest && host writable
    };

    /** @return the current architectural translation of @p va through
     *  guest + host tables, or std::nullopt when unmapped/unbacked. */
    std::optional<ArchNestedLeaf>
    archNestedLeaf(const TranslationContext &ctx, Addr va) const;

    stats::Scalar walks;
    stats::Scalar refsTotal;
    /** References made by *successful* walks only (drives the
     *  Table VI average; faulted partial walks are excluded). */
    stats::Scalar refsOkTotal;
    stats::Distribution refsDist;
    /** Successful walks by mode-coverage class (Table VI columns):
     *  index 0 = full shadow (4 refs), 1..4 = entered nested after
     *  3..0 shadow levels (8/12/16/20 refs), 5 = full nested (24). */
    stats::Scalar coverage[6];
    stats::Scalar guestFaults;
    stats::Scalar hostFaults;
    stats::Scalar shadowFaults;
    stats::Scalar nativeFaults;

    /**
     * The walk state machines, public as the primitives backends
     * compose walk servicing from (walker/backend.hh). Each assumes a
     * freshly reset @p r.
     */

    /** 1D walk used for native mode. */
    void nativeWalk(const TranslationContext &ctx, Addr va, bool is_write,
                    WalkResult &r);

    /** 2D walk of Fig. 2b (also agile's sptr==gptr case). */
    void nestedWalk(const TranslationContext &ctx, Addr va, bool is_write,
                    WalkResult &r);

    /** Shadow/agile walk of Fig. 4. */
    void agileWalk(const TranslationContext &ctx, Addr va, bool is_write,
                   WalkResult &r);

  private:
    /** Second-stage leaf translation of one guest frame. */
    struct HostLeaf
    {
        FrameId h4k = 0;
        PageSize hostSize = PageSize::Size4K;
        bool writable = false;
    };

    /**
     * Translate @p gframe through the host page table (nested TLB
     * assisted). Charges references into @p result.
     * @return false on HostFault (result filled in).
     */
    bool hostTranslate(const TranslationContext &ctx, FrameId gframe,
                       WalkResult &result, HostLeaf &out);

    /** Charge-free host-stage leaf lookup that also reports host
     *  writability (archNestedLeaf's second stage). */
    bool archHostLeaf(const TranslationContext &ctx, FrameId gframe,
                      FrameId &h4k, bool &writable) const;

    /** Classify a successful walk into a Table VI coverage column. */
    void recordCoverage(const WalkResult &r);

    void
    charge(WalkResult &r, WalkTable table, unsigned depth, FrameId frame)
    {
        ++r.refs;
        ++r.refsByTable[static_cast<std::size_t>(table)];
        if (tracing_)
            r.trace.push_back(WalkAccess{table, depth, frame});
    }

    PhysMem &mem_;
    PageWalkCache &pwc_;
    NestedTlb &ntlb_;
    TranslationBackend *backend_ = nullptr;
    unsigned vcpu_ = 0;
    bool tracing_ = false;
    /** Scratch result reused across walks (no per-walk allocation). */
    WalkResult result_;
};

} // namespace ap

#endif // AGILEPAGING_WALKER_WALKER_HH
