/**
 * @file
 * TLB hierarchy implementation.
 */

#include "tlb/tlb_hierarchy.hh"

namespace ap
{

TlbHierarchy::TlbHierarchy(stats::StatGroup *parent,
                           const TlbHierarchyConfig &cfg)
    : stats::StatGroup("tlb", parent),
      probes(this, "probes", "hierarchy probes",
             [this] { return double(probe_count_); }),
      l1Hits(this, "l1_hits", "probes hitting in an L1 TLB",
             [this] { return double(l1_hit_count_); }),
      l2Hits(this, "l2_hits", "probes hitting in the L2 TLB",
             [this] { return double(l2_hit_count_); }),
      missesStat(this, "misses", "probes missing the whole hierarchy",
                 [this] { return double(miss_count_); }),
      l1d4k("l1d4k", this, cfg.l1d4k.entries, cfg.l1d4k.ways,
            PageSize::Size4K),
      l1d2m("l1d2m", this, cfg.l1d2m.entries, cfg.l1d2m.ways,
            PageSize::Size2M),
      l1i4k("l1i4k", this, cfg.l1i4k.entries, cfg.l1i4k.ways,
            PageSize::Size4K),
      l1i2m("l1i2m", this, cfg.l1i2m.entries, cfg.l1i2m.ways,
            PageSize::Size2M),
      l2u4k("l2u4k", this, cfg.l2u4k.entries, cfg.l2u4k.ways,
            PageSize::Size4K)
{
}

void
TlbHierarchy::flushPage(Addr va, ProcId asid)
{
    ++asid_flush_gens_[asidGenSlot(asid)];
    l1d4k.flushPage(va, asid);
    l1d2m.flushPage(va, asid);
    l1i4k.flushPage(va, asid);
    l1i2m.flushPage(va, asid);
    l2u4k.flushPage(va, asid);
}

void
TlbHierarchy::flushAsid(ProcId asid)
{
    ++asid_flush_gens_[asidGenSlot(asid)];
    l1d4k.flushAsid(asid);
    l1d2m.flushAsid(asid);
    l1i4k.flushAsid(asid);
    l1i2m.flushAsid(asid);
    l2u4k.flushAsid(asid);
}

void
TlbHierarchy::flushRange(Addr base, Addr len, ProcId asid)
{
    ++asid_flush_gens_[asidGenSlot(asid)];
    l1d4k.flushRange(base, len, asid);
    l1d2m.flushRange(base, len, asid);
    l1i4k.flushRange(base, len, asid);
    l1i2m.flushRange(base, len, asid);
    l2u4k.flushRange(base, len, asid);
}

void
TlbHierarchy::flushAll()
{
    ++global_flush_gen_;
    l1d4k.flushAll();
    l1d2m.flushAll();
    l1i4k.flushAll();
    l1i2m.flushAll();
    l2u4k.flushAll();
}

} // namespace ap
