/**
 * @file
 * Page-table walker implementation.
 */

#include "walker/walker.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "walker/backend.hh"

namespace ap
{

namespace
{
/**
 * Leaf A/D side effect shared by every walk flavour: a store through
 * an effectively-writable translation sets the leaf dirty bit, and the
 * clean->dirty transition is noted so the machine can charge the
 * hardware A/D writeback for it. The resulting dirty state is reported
 * in the walk result so TLB entries can cache it.
 */
void
updateLeafDirty(Pte &pte, bool is_write, bool effective_writable,
                WalkResult &r)
{
    if (is_write && effective_writable) {
        if (!pte.dirty)
            r.dirtyTransition = true;
        pte.dirty = true;
    }
    r.dirty = pte.dirty;
}
} // namespace

Walker::Walker(stats::StatGroup *parent, PhysMem &mem, PageWalkCache &pwc,
               NestedTlb &ntlb)
    : stats::StatGroup("walker", parent),
      walks(this, "walks", "page walks performed"),
      refsTotal(this, "refs_total", "memory references by all walks"),
      refsOkTotal(this, "refs_ok_total",
                  "memory references by successful walks"),
      refsDist(this, "refs", "memory references per walk", 0, 30, 1),
      coverage{{this, "cov_shadow", "walks fully shadow (4 refs)"},
               {this, "cov_sw3", "walks nested below depth 3 (8 refs)"},
               {this, "cov_sw2", "walks nested below depth 2 (12 refs)"},
               {this, "cov_sw1", "walks nested below depth 1 (16 refs)"},
               {this, "cov_sw0", "walks fully nested, no gptr (20 refs)"},
               {this, "cov_nested", "walks fully nested incl gptr (24)"}},
      guestFaults(this, "guest_faults", "walks ending in a guest fault"),
      hostFaults(this, "host_faults", "walks ending in a host fault"),
      shadowFaults(this, "shadow_faults", "walks ending in a shadow fault"),
      nativeFaults(this, "native_faults", "walks ending in a native fault"),
      mem_(mem),
      pwc_(pwc),
      ntlb_(ntlb)
{
}

const WalkResult &
Walker::walk(const TranslationContext &ctx, Addr va, bool is_write)
{
    ++walks;
    WalkResult &r = result_;
    r.reset();
    TranslationBackend &backend =
        backend_ ? *backend_ : builtinBackend(ctx.mode);
    backend.serviceWalk(*this, vcpu_, ctx, va, is_write, r);
    refsTotal += r.refs;
    if (r.ok()) {
        refsOkTotal += r.refs;
        refsDist.sample(r.refs);
        recordCoverage(r);
    } else {
        switch (r.fault) {
          case WalkFault::GuestFault:
            ++guestFaults;
            break;
          case WalkFault::HostFault:
            ++hostFaults;
            break;
          case WalkFault::ShadowFault:
            ++shadowFaults;
            break;
          case WalkFault::NativeFault:
            ++nativeFaults;
            break;
          default:
            break;
        }
    }
    return r;
}

bool
Walker::archHostLeaf(const TranslationContext &ctx, FrameId gframe,
                     FrameId &h4k, bool &writable) const
{
    Addr gpa = frameAddr(gframe);
    FrameId f = ctx.hptRoot;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        const PtPage *page = mem_.tableOrNull(f);
        if (!page)
            return false;
        const Pte &pte = (*page)[ptIndex(gpa, d)];
        if (!pte.valid)
            return false;
        if (endsWalk(d, pte.pageSize)) {
            std::uint64_t frames = pageBytes(sizeAtDepth(d)) / kPageBytes;
            h4k = pte.pfn + (gframe % frames);
            writable = pte.writable;
            return true;
        }
        f = pte.pfn;
    }
    return false;
}

std::optional<Walker::ArchNestedLeaf>
Walker::archNestedLeaf(const TranslationContext &ctx, Addr va) const
{
    FrameId cur = 0;
    bool root_writable = false;
    if (!archHostLeaf(ctx, ctx.gptRoot, cur, root_writable))
        return std::nullopt;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        if (!mem_.tableOrNull(cur))
            return std::nullopt;
        Pte &pte = mem_.table(cur)[ptIndex(va, d)];
        if (!pte.valid)
            return std::nullopt;
        if (endsWalk(d, pte.pageSize)) {
            std::uint64_t gframes = pageBytes(sizeAtDepth(d)) / kPageBytes;
            FrameId gf = pte.pfn + (frameOf(va) % gframes);
            FrameId h4k = 0;
            bool host_writable = false;
            if (!archHostLeaf(ctx, gf, h4k, host_writable))
                return std::nullopt;
            return ArchNestedLeaf{&pte, h4k,
                                  pte.writable && host_writable};
        }
        FrameId next = 0;
        bool next_writable = false;
        if (!archHostLeaf(ctx, pte.pfn, next, next_writable))
            return std::nullopt;
        cur = next;
    }
    return std::nullopt;
}

void
Walker::recordCoverage(const WalkResult &r)
{
    if (r.fullNested) {
        ++coverage[5];
    } else if (r.switchDepth >= kPtLevels) {
        ++coverage[0];
    } else {
        // switchDepth 3 -> one nested level (8 refs) -> coverage[1], ...
        ++coverage[kPtLevels - r.switchDepth];
    }
}

bool
Walker::hostTranslate(const TranslationContext &ctx, FrameId gframe,
                      WalkResult &result, HostLeaf &out)
{
    if (auto cached = ntlb_.lookup(gframe)) {
        ++result.ntlbHits;
        out.h4k = cached->hframe;
        out.hostSize = cached->hostSize;
        out.writable = cached->writable;
        return true;
    }
    Addr gpa = frameAddr(gframe);
    FrameId f = ctx.hptRoot;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        PtPage &page = mem_.table(f);
        Pte &pte = page[ptIndex(gpa, d)];
        charge(result, WalkTable::HostPt, d, f);
        if (!pte.valid) {
            result.fault = WalkFault::HostFault;
            result.faultGpa = gpa;
            result.faultDepth = d;
            return false;
        }
        pte.accessed = true;
        if (endsWalk(d, pte.pageSize)) {
            ++result.coldRefs; // the host leaf PTE read
            std::uint64_t frames = pageBytes(sizeAtDepth(d)) / kPageBytes;
            out.h4k = pte.pfn + (gframe % frames);
            out.hostSize = sizeAtDepth(d);
            out.writable = pte.writable;
            ntlb_.insert(gframe, NtlbEntry{out.h4k, out.hostSize,
                                           out.writable});
            return true;
        }
        f = pte.pfn;
    }
    ap_panic("host walk ran off the end");
}

void
Walker::nativeWalk(const TranslationContext &ctx, Addr va, bool is_write,
                   WalkResult &r)
{
    PwcHit hit = pwc_.probe(va, ctx.asid);
    unsigned depth = hit.startDepth;
    r.pwcStartDepth = depth;
    FrameId cur = depth ? hit.entry.frame : ctx.nativeRoot;

    for (unsigned d = depth; d < kPtLevels; ++d) {
        PtPage &page = mem_.table(cur);
        Pte &pte = page[ptIndex(va, d)];
        charge(r, WalkTable::NativePt, d, cur);
        if (!pte.valid) {
            r.fault = WalkFault::NativeFault;
            r.faultVa = va;
            r.faultDepth = d;
            return;
        }
        pte.accessed = true;
        if (endsWalk(d, pte.pageSize)) {
            ++r.coldRefs; // the leaf PTE read
            r.hframe = pte.pfn;
            r.size = sizeAtDepth(d);
            r.writable = pte.writable;
            updateLeafDirty(pte, is_write, pte.writable, r);
            return;
        }
        cur = pte.pfn;
        pwc_.fill(va, ctx.asid, d + 1, cur, false);
    }
    ap_panic("native walk ran off the end");
}

namespace
{
/** Effective granule of a two-stage translation (paper Section V:
 *  mixed sizes are broken to the smaller for TLB entry). */
PageSize
minSize(PageSize a, PageSize b)
{
    return pageBytes(a) <= pageBytes(b) ? a : b;
}
} // namespace

void
Walker::nestedWalk(const TranslationContext &ctx, Addr va, bool is_write,
                   WalkResult &r)
{
    r.fullNested = true;
    r.switchDepth = 0;

    PwcHit hit = pwc_.probe(va, ctx.asid);
    unsigned depth = hit.startDepth;
    r.pwcStartDepth = depth;
    FrameId cur;
    if (depth) {
        cur = hit.entry.frame;
    } else {
        // Translate gptr through the host table (Table II "PTptr" row).
        HostLeaf leaf;
        if (!hostTranslate(ctx, ctx.gptRoot, r, leaf)) {
            r.faultVa = va;
            return;
        }
        cur = leaf.h4k;
    }

    for (unsigned d = depth; d < kPtLevels; ++d) {
        PtPage &page = mem_.table(cur);
        Pte &pte = page[ptIndex(va, d)];
        charge(r, WalkTable::GuestPt, d, cur);
        if (!pte.valid) {
            r.fault = WalkFault::GuestFault;
            r.faultVa = va;
            r.faultDepth = d;
            return;
        }
        pte.accessed = true;
        if (endsWalk(d, pte.pageSize)) {
            ++r.coldRefs; // the guest leaf PTE read
            PageSize gsize = sizeAtDepth(d);
            std::uint64_t gframes = pageBytes(gsize) / kPageBytes;
            FrameId gf = pte.pfn + (frameOf(va) % gframes);
            HostLeaf leaf;
            if (!hostTranslate(ctx, gf, r, leaf)) {
                r.faultVa = va;
                return;
            }
            r.size = minSize(gsize, leaf.hostSize);
            std::uint64_t eframes = pageBytes(r.size) / kPageBytes;
            r.hframe = leaf.h4k - (frameOf(va) % eframes);
            r.writable = pte.writable && leaf.writable;
            updateLeafDirty(pte, is_write, r.writable, r);
            return;
        }
        HostLeaf leaf;
        if (!hostTranslate(ctx, pte.pfn, r, leaf)) {
            r.faultVa = va;
            return;
        }
        cur = leaf.h4k;
        pwc_.fill(va, ctx.asid, d + 1, cur, true);
    }
    ap_panic("nested walk ran off the end");
}

void
Walker::agileWalk(const TranslationContext &ctx, Addr va, bool is_write,
                  WalkResult &r)
{
    PwcHit hit = pwc_.probe(va, ctx.asid);
    unsigned depth = hit.startDepth;
    r.pwcStartDepth = depth;
    bool nested;
    FrameId cur;
    if (depth) {
        nested = hit.entry.nested;
        cur = hit.entry.frame;
        r.switchDepth = nested ? depth : kPtLevels;
    } else if (ctx.rootSwitch) {
        // The sptr register itself carries the switching bit: every
        // level is walked nested, but gptr needs no translation
        // (20-reference walks; Fig. 3e).
        nested = true;
        cur = ctx.gptRootBacking;
        r.switchDepth = 0;
    } else {
        nested = false;
        cur = ctx.sptRoot;
    }

    for (unsigned d = depth; d < kPtLevels; ++d) {
        if (!nested) {
            PtPage &page = mem_.table(cur);
            Pte &pte = page[ptIndex(va, d)];
            charge(r, WalkTable::ShadowPt, d, cur);
            if (!pte.valid) {
                r.fault = WalkFault::ShadowFault;
                r.faultVa = va;
                r.faultDepth = d;
                return;
            }
            pte.accessed = true;
            if (pte.switching) {
                // Switch to nested mode: the entry holds the host
                // frame of the *next level* of the guest page table.
                ap_assert(d < kPtLevels - 1,
                          "switching bit in a leaf shadow entry");
                nested = true;
                cur = pte.pfn;
                r.switchDepth = d + 1;
                pwc_.fill(va, ctx.asid, d + 1, cur, true);
                continue;
            }
            if (endsWalk(d, pte.pageSize)) {
                // Shadow leaf: complete gVA=>hPA translation.
                ++r.coldRefs; // the shadow leaf PTE read
                r.size = sizeAtDepth(d);
                r.hframe = pte.pfn;
                r.writable = pte.writable;
                updateLeafDirty(pte, is_write, pte.writable, r);
                return;
            }
            cur = pte.pfn;
            pwc_.fill(va, ctx.asid, d + 1, cur, false);
        } else {
            PtPage &page = mem_.table(cur);
            Pte &pte = page[ptIndex(va, d)];
            charge(r, WalkTable::GuestPt, d, cur);
            if (!pte.valid) {
                r.fault = WalkFault::GuestFault;
                r.faultVa = va;
                r.faultDepth = d;
                return;
            }
            pte.accessed = true;
            if (endsWalk(d, pte.pageSize)) {
                PageSize gsize = sizeAtDepth(d);
                std::uint64_t gframes = pageBytes(gsize) / kPageBytes;
                FrameId gf = pte.pfn + (frameOf(va) % gframes);
                HostLeaf leaf;
                if (!hostTranslate(ctx, gf, r, leaf)) {
                    r.faultVa = va;
                    return;
                }
                r.size = minSize(gsize, leaf.hostSize);
                std::uint64_t eframes = pageBytes(r.size) / kPageBytes;
                r.hframe = leaf.h4k - (frameOf(va) % eframes);
                r.writable = pte.writable && leaf.writable;
                updateLeafDirty(pte, is_write, r.writable, r);
                return;
            }
            HostLeaf leaf;
            if (!hostTranslate(ctx, pte.pfn, r, leaf)) {
                r.faultVa = va;
                return;
            }
            cur = leaf.h4k;
            pwc_.fill(va, ctx.asid, d + 1, cur, true);
        }
    }
    ap_panic("agile walk ran off the end");
}

} // namespace ap
