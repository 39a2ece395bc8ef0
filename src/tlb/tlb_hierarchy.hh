/**
 * @file
 * The per-core TLB hierarchy of the paper's Table III (Sandy Bridge
 * Xeon E5-2430):
 *
 *   L1 DTLB: 4K 64e/4w, 2M 32e/4w, 1G 4e/full
 *   L1 ITLB: 4K 128e/4w, 2M 8e/full
 *   L2 TLB (unified): 4K 512e/4w (no 2M entries)
 *
 * The 1G DTLB is not modelled: 2 MB is the largest page any run maps.
 *
 * A probe checks the appropriate L1 (D or I) then the L2. A fill
 * installs into both the L1 and (for 4K translations) the L2; an L2 hit
 * also refills the L1.
 */

#ifndef AGILEPAGING_TLB_TLB_HIERARCHY_HH
#define AGILEPAGING_TLB_TLB_HIERARCHY_HH

#include <memory>
#include <optional>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "tlb/tlb.hh"

namespace ap
{

/** Geometry knobs for one TLB structure. */
struct TlbGeometry
{
    std::size_t entries;
    std::size_t ways;
};

/** Configuration of the whole hierarchy (defaults = Table III). */
struct TlbHierarchyConfig
{
    TlbGeometry l1d4k{64, 4};
    TlbGeometry l1d2m{32, 4};
    TlbGeometry l1i4k{128, 4};
    TlbGeometry l1i2m{8, 8};
    TlbGeometry l2u4k{512, 4};
};

/** Where a hit was found (for latency attribution). */
enum class TlbHitLevel
{
    L1,
    L2,
    Miss,
};

/** Result of a hierarchy probe. */
struct TlbProbeResult
{
    TlbHitLevel level = TlbHitLevel::Miss;
    TlbEntry entry{};
    PageSize size = PageSize::Size4K;
};

/**
 * The full per-core hierarchy.
 */
class TlbHierarchy : public stats::StatGroup
{
  public:
    TlbHierarchy(stats::StatGroup *parent, const TlbHierarchyConfig &cfg);

    /**
     * Probe for a data or instruction translation.
     * Checks every page-size sub-TLB (hardware probes them in
     * parallel); an L2 hit is promoted into the appropriate L1.
     */
    TlbProbeResult
    probe(Addr va, ProcId asid, bool is_instr)
    {
        ++probe_count_;
        TlbProbeResult result;

        // L1 fast path: pointer probes of each page-size sub-TLB
        // (hardware probes them in parallel), no entry copies until a
        // hit is known.
        const TlbEntry *e = nullptr;
        const Tlb *src = nullptr;
        if (is_instr) {
            if ((e = l1i4k.find(va, asid)))
                src = &l1i4k;
            else if ((e = l1i2m.find(va, asid)))
                src = &l1i2m;
        } else {
            if ((e = l1d4k.find(va, asid)))
                src = &l1d4k;
            else if ((e = l1d2m.find(va, asid)))
                src = &l1d2m;
        }
        if (e) {
            ++l1_hit_count_;
            result.level = TlbHitLevel::L1;
            result.entry = *e;
            result.size = src->pageSize();
            return result;
        }

        // Unified L2 holds only 4K translations (Table III).
        if (const TlbEntry *e2 = l2u4k.find(va, asid)) {
            ++l2_hit_count_;
            result.level = TlbHitLevel::L2;
            result.entry = *e2;
            result.size = PageSize::Size4K;
            // Refill the L1 that missed.
            (is_instr ? l1i4k : l1d4k).insert(va, asid, result.entry);
            return result;
        }

        ++miss_count_;
        return result;
    }

    /**
     * The address mask of the range around @p va over which a probe
     * is certain to hit the L1 entry of granule @p ps that just served
     * @p va, until the next fill or flush. That is the whole @p ps page
     * unless a finer-grained L1 structure earlier in the probe order
     * holds an entry inside it (the range backend fills 4K translations
     * inside 2M mappings); then only @p va's 4K page, whose finer
     * probes just missed.
     */
    Addr
    l1HitMask(Addr va, ProcId asid, bool is_instr, PageSize ps)
    {
        const Addr page4k = ~(kPageBytes - 1);
        if (ps == PageSize::Size4K)
            return page4k;
        return (is_instr ? l1i4k : l1d4k).holdsWithin(va, asid, ps)
                   ? page4k
                   : ~(kLargePageBytes - 1);
    }

    /** Install a completed translation of granule @p ps. */
    void
    fill(Addr va, ProcId asid, bool is_instr, PageSize ps,
         const TlbEntry &entry)
    {
        if (ps == PageSize::Size4K) {
            (is_instr ? l1i4k : l1d4k).insert(va, asid, entry);
            l2u4k.insert(va, asid, entry);
        } else {
            (is_instr ? l1i2m : l1d2m).insert(va, asid, entry);
        }
    }

    /** Invalidate one page everywhere. */
    void flushPage(Addr va, ProcId asid);

    /** Invalidate an address-space id everywhere (guest CR3 write /
     *  full guest TLB flush). */
    void flushAsid(ProcId asid);

    /** Invalidate a VA range for @p asid everywhere. */
    void flushRange(Addr base, Addr len, ProcId asid);

    /** Invalidate everything (host-side invalidation). */
    void flushAll();

    /**
     * Monotonic invalidation count as seen by @p asid. The machine's
     * last-translation filter caches the previous probe's result and
     * must revalidate it whenever anything that could affect this
     * address space may have been flushed; comparing this counter is
     * that check.
     *
     * Scoped flushes (flushPage/flushAsid/flushRange) bump only the
     * target ASID's generation slot, so one process's flush no longer
     * invalidates every other process's filter; flushAll() bumps the
     * global generation all ASIDs observe. The per-ASID slots are a
     * small direct-mapped array, so two ASIDs that collide modulo
     * kAsidGenSlots conservatively invalidate each other — never the
     * reverse.
     */
    std::uint64_t
    flushGeneration(ProcId asid) const
    {
        return global_flush_gen_ + asid_flush_gens_[asidGenSlot(asid)];
    }

    /**
     * Account a probe that an external last-translation filter proved
     * would hit the same L1 entry as the immediately preceding probe of
     * this stream (same page, no flush in between): bumps exactly the
     * counters probe() would bump for an L1 hit of size @p ps, without
     * re-touching the arrays. Re-stamping the entry's LRU state is
     * skipped deliberately — the entry is already the most recently
     * used way of its set, so the set's relative order is unchanged.
     */
    void
    countFilteredL1Hit(PageSize ps, bool is_instr)
    {
        ++probe_count_;
        ++l1_hit_count_;
        // Mirror the per-structure hit/miss charges of probe()'s
        // probe order for the structure the entry demonstrably
        // lives in.
        Tlb &l1_4k = is_instr ? l1i4k : l1d4k;
        if (ps == PageSize::Size4K) {
            ++l1_4k.hits;
        } else {
            ++l1_4k.misses;
            ++(is_instr ? l1i2m : l1d2m).hits;
        }
    }

    /** Aggregate probe counters. The hot path bumps plain integers;
     *  the formulas expose them to stat dumps lazily. */
    stats::Formula probes;
    stats::Formula l1Hits;
    stats::Formula l2Hits;
    stats::Formula missesStat;

    Tlb l1d4k, l1d2m;
    Tlb l1i4k, l1i2m;
    Tlb l2u4k;

    /** Visit every live entry of every structure as
     *  @p fn(va, asid, entry, granule) (invariant sweeps). */
    template <typename Fn>
    void
    forEachEntry(const Fn &fn) const
    {
        for (const Tlb *t : {&l1d4k, &l1d2m, &l1i4k, &l1i2m, &l2u4k}) {
            t->forEach([&](Addr va, ProcId asid, const TlbEntry &e) {
                fn(va, asid, e, t->pageSize());
            });
        }
    }

    /** Snapshot support: every cache plus the aggregate counters the
     *  Formula stats read. */
    void
    saveState(Serializer &s) const
    {
        for (const Tlb *t : {&l1d4k, &l1d2m, &l1i4k, &l1i2m, &l2u4k})
            t->saveState(s);
        s.putU64(probe_count_);
        s.putU64(l1_hit_count_);
        s.putU64(l2_hit_count_);
        s.putU64(miss_count_);
        s.putU64(global_flush_gen_);
        for (std::uint64_t g : asid_flush_gens_)
            s.putU64(g);
    }

    void
    restoreState(Deserializer &d)
    {
        for (Tlb *t : {&l1d4k, &l1d2m, &l1i4k, &l1i2m, &l2u4k})
            t->restoreState(d);
        probe_count_ = d.getU64();
        l1_hit_count_ = d.getU64();
        l2_hit_count_ = d.getU64();
        miss_count_ = d.getU64();
        global_flush_gen_ = d.getU64();
        for (std::uint64_t &g : asid_flush_gens_)
            g = d.getU64();
    }

    /** Direct-mapped per-ASID flush-generation slots. */
    static constexpr std::size_t kAsidGenSlots = 64;

    static std::size_t
    asidGenSlot(ProcId asid)
    {
        return static_cast<std::size_t>(asid) & (kAsidGenSlots - 1);
    }

  private:
    std::uint64_t probe_count_ = 0;
    std::uint64_t l1_hit_count_ = 0;
    std::uint64_t l2_hit_count_ = 0;
    std::uint64_t miss_count_ = 0;
    /** Bumped by flushAll(): every address space observes it. */
    std::uint64_t global_flush_gen_ = 1;
    /** Bumped by ASID-scoped flushes; observed generation is the sum
     *  of the global counter and the ASID's slot, so both kinds of
     *  flush strictly advance what flushGeneration(asid) returns. */
    std::uint64_t asid_flush_gens_[kAsidGenSlots] = {};
};

} // namespace ap

#endif // AGILEPAGING_TLB_TLB_HIERARCHY_HH
