/**
 * @file
 * Range/segment translation backend implementation.
 */

#include "core/range_backend.hh"

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "base/serialize.hh"

namespace ap
{

RangeBackend::RangeBackend(stats::StatGroup *parent, unsigned num_vcpus,
                           const RangeBackendConfig &cfg)
    : TranslationBackend(VirtMode::Range),
      stats::StatGroup("segments", parent),
      cfg_(cfg),
      segment_hits_(this, "segment_hits",
                    "walks translated by a segment register (0 refs)"),
      segment_fills_(this, "segment_fills",
                     "segment registers installed after a miss"),
      segment_spills_(this, "segment_spills",
                      "segment installs that evicted a live register"),
      segment_invalidations_(this, "segment_invalidations",
                             "segments dropped by coherence or "
                             "validation")
{
    ap_assert(cfg_.segmentRegs > 0, "segment file must have registers");
    ap_assert(cfg_.segmentMinPages > 0, "segmentMinPages must be > 0");
    ap_assert(cfg_.segmentMaxPages >= cfg_.segmentMinPages,
              "segmentMaxPages must cover segmentMinPages");
    files_.resize(num_vcpus ? num_vcpus : 1);
    for (File &f : files_)
        f.resize(cfg_.segmentRegs);
}

RangeBackend::SegmentReg *
RangeBackend::find(File &file, ProcId asid, Addr va)
{
    FrameId page = frameOf(va);
    for (SegmentReg &seg : file) {
        if (!seg.pages || seg.asid != asid)
            continue;
        FrameId base = frameOf(seg.vaBase);
        if (page >= base && page - base < seg.pages)
            return &seg;
    }
    return nullptr;
}

void
RangeBackend::serviceWalk(Walker &w, unsigned vcpu,
                          const TranslationContext &ctx, Addr va,
                          bool is_write, WalkResult &r)
{
    ap_assert(vcpu < files_.size(), "vcpu ", vcpu, " has no segment file");
    File &file = files_[vcpu];

    if (SegmentReg *seg = find(file, ctx.asid, va)) {
        // Validate the linear prediction against the architectural
        // translation: a segment accelerates the walk, it never
        // overrides the page tables.
        auto leaf = w.archNestedLeaf(ctx, va);
        FrameId predicted =
            seg->hbase + (frameOf(va) - frameOf(seg->vaBase));
        if (leaf && leaf->h4k == predicted) {
            seg->lastUse = ++lru_tick_;
            ++segment_hits_;
            r.hframe = leaf->h4k;
            r.size = PageSize::Size4K;
            r.writable = leaf->writable;
            // Same leaf A/D side effects a real walk applies.
            leaf->guestLeaf->accessed = true;
            if (is_write && leaf->writable) {
                if (!leaf->guestLeaf->dirty)
                    r.dirtyTransition = true;
                leaf->guestLeaf->dirty = true;
            }
            r.dirty = leaf->guestLeaf->dirty;
            return;
        }
        // The mapping moved under the segment: self-heal by dropping
        // it and falling back to paging. (Coherence hooks should have
        // caught this; the residency sweep flags the window.)
        seg->pages = 0;
        ++segment_invalidations_;
    }

    w.nestedWalk(ctx, va, is_write, r);
    if (r.ok())
        maybeInstall(w, file, ctx, va, r);
}

void
RangeBackend::maybeInstall(Walker &w, File &file,
                           const TranslationContext &ctx, Addr va,
                           WalkResult &r)
{
    auto leaf = w.archNestedLeaf(ctx, va);
    if (!leaf)
        return;
    FrameId page0 = frameOf(va);
    FrameId h0 = leaf->h4k;

    // Extend left while guest pages stay host-contiguous.
    std::uint64_t left = 0;
    while (left + 1 < cfg_.segmentMaxPages && page0 > left &&
           h0 > left) {
        auto l = w.archNestedLeaf(ctx, frameAddr(page0 - left - 1));
        if (!l || l->h4k != h0 - left - 1)
            break;
        ++left;
    }
    // Extend right.
    std::uint64_t right = 0;
    while (left + 1 + right < cfg_.segmentMaxPages) {
        auto l = w.archNestedLeaf(ctx, frameAddr(page0 + right + 1));
        if (!l || l->h4k != h0 + right + 1)
            break;
        ++right;
    }

    std::uint64_t pages = left + 1 + right;
    if (pages < cfg_.segmentMinPages)
        return;

    Addr va_base = frameAddr(page0 - left);
    // Retire any same-asid register the new run overlaps (the new
    // segment subsumes it; not an invalidation, not a spill).
    for (SegmentReg &seg : file) {
        if (!seg.pages || seg.asid != ctx.asid)
            continue;
        Addr seg_end = seg.vaBase + seg.pages * kPageBytes;
        Addr new_end = va_base + pages * kPageBytes;
        if (seg.vaBase < new_end && va_base < seg_end)
            seg.pages = 0;
    }

    // Pick a free register, else evict the LRU one (a spill).
    SegmentReg *slot = nullptr;
    for (SegmentReg &seg : file) {
        if (!seg.pages) {
            slot = &seg;
            break;
        }
    }
    if (!slot) {
        slot = &file.front();
        for (SegmentReg &seg : file)
            if (seg.lastUse < slot->lastUse)
                slot = &seg;
        ++segment_spills_;
    }

    *slot = SegmentReg{ctx.asid, va_base, pages, h0 - left, ++lru_tick_};
    ++segment_fills_;
    r.extraCycles += cfg_.segmentFillCycles;
}

template <typename Pred>
void
RangeBackend::dropSegments(Pred &&pred, bool count_invalidation)
{
    for (File &file : files_) {
        for (SegmentReg &seg : file) {
            if (!seg.pages || !pred(seg))
                continue;
            seg.pages = 0;
            if (count_invalidation)
                ++segment_invalidations_;
        }
    }
}

void
RangeBackend::onFlushPage(Addr va, ProcId asid)
{
    FrameId page = frameOf(va);
    dropSegments(
        [&](const SegmentReg &seg) {
            FrameId base = frameOf(seg.vaBase);
            return seg.asid == asid && page >= base &&
                   page - base < seg.pages;
        },
        true);
}

void
RangeBackend::onFlushRange(Addr base, Addr len, ProcId asid)
{
    if (len == 0)
        return;
    Addr last = rangeLast(base, len);
    dropSegments(
        [&](const SegmentReg &seg) {
            Addr seg_end = seg.vaBase + seg.pages * kPageBytes;
            return seg.asid == asid && seg.vaBase <= last &&
                   base < seg_end;
        },
        true);
}

void
RangeBackend::onFlushAsid(ProcId asid)
{
    dropSegments([&](const SegmentReg &seg) { return seg.asid == asid; },
                 true);
}

void
RangeBackend::onFlushAll()
{
    dropSegments([](const SegmentReg &) { return true; }, true);
}

void
RangeBackend::plantSegment(unsigned vcpu, const SegmentReg &seg)
{
    ap_assert(vcpu < files_.size(), "vcpu ", vcpu, " has no segment file");
    files_[vcpu].at(0) = seg;
}

void
RangeBackend::saveState(Serializer &s) const
{
    s.putMarker(0x53454746u); // 'SEGF'
    s.putU64(lru_tick_);
    s.putU64(files_.size());
    for (const File &file : files_) {
        s.putU64(file.size());
        for (const SegmentReg &seg : file) {
            s.putU32(seg.asid);
            s.putU64(seg.vaBase);
            s.putU64(seg.pages);
            s.putU64(seg.hbase);
            s.putU64(seg.lastUse);
        }
    }
}

void
RangeBackend::restoreState(Deserializer &d)
{
    d.checkMarker(0x53454746u);
    lru_tick_ = d.getU64();
    std::uint64_t nfiles = d.getU64();
    ap_assert(nfiles == files_.size(),
              "segment-file count mismatch on restore");
    for (File &file : files_) {
        std::uint64_t nregs = d.getU64();
        ap_assert(nregs == file.size(),
                  "segment-register count mismatch on restore");
        for (SegmentReg &seg : file) {
            seg.asid = d.getU32();
            seg.vaBase = d.getU64();
            seg.pages = d.getU64();
            seg.hbase = d.getU64();
            seg.lastUse = d.getU64();
        }
    }
}

} // namespace ap
