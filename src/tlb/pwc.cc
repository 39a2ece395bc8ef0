/**
 * @file
 * Page walk cache implementation.
 */

#include "tlb/pwc.hh"

#include "base/bitfield.hh"

namespace ap
{

PageWalkCache::PageWalkCache(stats::StatGroup *parent, std::size_t entries,
                             std::size_t ways, bool enabled)
    : stats::StatGroup("pwc", parent),
      hitsSkip1(this, "hits_skip1", "walks resumed at depth 1"),
      hitsSkip2(this, "hits_skip2", "walks resumed at depth 2"),
      hitsSkip3(this, "hits_skip3", "walks resumed at depth 3"),
      missesStat(this, "misses", "probes with no usable skip"),
      enabled_(enabled)
{
    for (unsigned d = 0; d < kPtLevels - 1; ++d)
        tables_.emplace_back(entries, ways);
}

std::uint64_t
PageWalkCache::key(Addr va, ProcId asid, unsigned depth) const
{
    // The prefix consumed by depths 0..depth-1: the top depth*9 bits of
    // the 48-bit VA.
    unsigned shift = kPageShift + (kPtLevels - depth) * kLevelBits;
    return (va >> shift) |
           (static_cast<std::uint64_t>(asid) << kAsidKeyShift);
}

PwcHit
PageWalkCache::probe(Addr va, ProcId asid)
{
    PwcHit hit;
    if (!enabled_) {
        return hit;
    }
    for (unsigned depth = kPtLevels - 1; depth >= 1; --depth) {
        if (PwcEntry *e = tables_[depth - 1].lookup(key(va, asid, depth))) {
            hit.startDepth = depth;
            hit.entry = *e;
            switch (depth) {
              case 1:
                ++hitsSkip1;
                break;
              case 2:
                ++hitsSkip2;
                break;
              default:
                ++hitsSkip3;
                break;
            }
            return hit;
        }
    }
    ++missesStat;
    return hit;
}

void
PageWalkCache::fill(Addr va, ProcId asid, unsigned depth, FrameId frame,
                    bool nested)
{
    if (!enabled_ || depth == 0 || depth >= kPtLevels)
        return;
    tables_[depth - 1].insert(key(va, asid, depth),
                              PwcEntry{frame, nested});
}

void
PageWalkCache::flushAsid(ProcId asid)
{
    for (auto &t : tables_) {
        t.eraseIf([asid](std::uint64_t k, const PwcEntry &) {
            return (k >> kAsidKeyShift) == asid;
        });
    }
}

void
PageWalkCache::flushRange(Addr base, Addr len, ProcId asid)
{
    // Same guard as Tlb::flushRange: base + len - 1 must not wrap.
    if (len == 0)
        return;
    Addr last = rangeLast(base, len);
    for (unsigned depth = 1; depth < kPtLevels; ++depth) {
        unsigned shift = kPageShift + (kPtLevels - depth) * kLevelBits;
        eraseTaggedRange(tables_[depth - 1], asid, base >> shift,
                         last >> shift);
    }
}

void
PageWalkCache::flushAll()
{
    for (auto &t : tables_)
        t.clear();
}

} // namespace ap
