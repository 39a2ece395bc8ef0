/**
 * @file
 * A single TLB structure holding translations for one page size.
 *
 * Regardless of virtualization technique the TLB maps gVA directly to a
 * host frame (VA to PA when native) — the paper's Table I "TLB hit"
 * row: hits are equally fast in every mode.
 */

#ifndef AGILEPAGING_TLB_TLB_HH
#define AGILEPAGING_TLB_TLB_HH

#include <optional>
#include <string>

#include "base/serialize.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "tlb/assoc_cache.hh"

namespace ap
{

/** Payload of one TLB entry. */
struct TlbEntry
{
    /** Final (host) frame; for a 2M entry, the frame of the base. */
    FrameId pfn = 0;
    /** Write permission as seen by hardware (shadow may clear it). */
    bool writable = false;
    /** Leaf dirty state at fill time. A store through a clean entry
     *  must re-walk so the hardware can set the in-memory dirty bit
     *  (x86 SDM: the cached translation alone cannot satisfy it). */
    bool dirty = false;
    /** Always 0. Named so that no byte of an entry is padding: copies
     *  and snapshot images of equal entries are equal byte for byte. */
    std::uint16_t reserved = 0;
    /** Global/asid: entries are tagged, flushed per-asid. */
    ProcId asid = 0;
};
static_assert(sizeof(TlbEntry) == 16, "TlbEntry snapshot layout");

/**
 * One set-associative TLB for a fixed page size.
 */
class Tlb : public stats::StatGroup
{
  public:
    /**
     * @param name     stat name ("l1d4k" etc.)
     * @param parent   stat parent group (may be nullptr)
     * @param entries  total entries
     * @param ways     associativity
     * @param ps       page size this TLB holds
     */
    Tlb(const std::string &name, stats::StatGroup *parent,
        std::size_t entries, std::size_t ways, PageSize ps);

    /**
     * Probe for (va, asid).
     * @return the entry on hit (after LRU update), nullopt on miss.
     */
    std::optional<TlbEntry> lookup(Addr va, ProcId asid);

    /**
     * Hot-path probe: identical to lookup() (LRU refresh, hit/miss
     * stats) but returns a pointer into the cache instead of copying
     * the entry through an optional. The pointer is valid until the
     * next mutating call. A probe whose region bit is clear cannot
     * hit, so it counts its miss without scanning the set.
     */
    const TlbEntry *
    find(Addr va, ProcId asid)
    {
        if (region_bits_ & regionBit(va, asid)) {
            if (TlbEntry *e = cache_.lookup(key(va, asid))) {
                ++hits;
                return e;
            }
        }
        ++misses;
        return nullptr;
    }

    /** Probe without updating LRU or stats. */
    bool contains(Addr va, ProcId asid) const;

    /** Install a translation (evicts LRU within the set if needed). */
    void
    insert(Addr va, ProcId asid, const TlbEntry &entry)
    {
        region_bits_ |= regionBit(va, asid);
        if (cache_.insert(key(va, asid), entry))
            ++evictions;
    }

    /**
     * Whether a live entry of @p asid lies inside the page of granule
     * @p region that holds @p va. LRU state and stats are untouched.
     */
    bool holdsWithin(Addr va, ProcId asid, PageSize region);

    /** Invalidate one page's translation. */
    void flushPage(Addr va, ProcId asid);

    /** Invalidate every translation belonging to @p asid. */
    void flushAsid(ProcId asid);

    /** Invalidate translations of @p asid inside [base, base+len). */
    void flushRange(Addr base, Addr len, ProcId asid);

    /** Invalidate everything. */
    void flushAll();

    PageSize pageSize() const { return ps_; }
    std::size_t size() const { return cache_.size(); }

    /** Visit every live entry as @p fn(va, asid, entry), va decoded to
     *  the entry's page base. LRU state is untouched (invariant
     *  sweeps). */
    template <typename Fn>
    void
    forEach(const Fn &fn) const
    {
        cache_.forEach([&](std::uint64_t k, const TlbEntry &e) {
            Addr va = (k & ((std::uint64_t{1} << kAsidKeyShift) - 1))
                      << shift_;
            fn(va, static_cast<ProcId>(k >> kAsidKeyShift), e);
        });
    }

    /** Snapshot support (stat counters travel via the stats tree). */
    void saveState(Serializer &s) const { cache_.saveState(s); }
    void
    restoreState(Deserializer &d)
    {
        cache_.restoreState(d);
        rebuildRegionBits();
    }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;

  private:
    /** Recompute region_bits_ from the live entries alone. */
    void rebuildRegionBits();

    /** False when region_bits_ proves that no live entry of @p asid
     *  lies in [@p base, @p last]: every summary region the range
     *  touches has its bit clear. */
    bool mayHoldRange(Addr base, Addr last, ProcId asid) const;

    std::uint64_t
    key(Addr va, ProcId asid) const
    {
        // vpn in the low bits (drives set selection); asid in the high
        // bits so different processes never alias.
        return (va >> shift_) |
               (static_cast<std::uint64_t>(asid) << kAsidKeyShift);
    }

    /** Summary granule: 2M, the largest page, so every address an
     *  entry translates shares the entry's bit. */
    static constexpr unsigned kRegionShift = kPageShift + kLevelBits;

    /** The summary bit of the 2M region holding @p va for @p asid. */
    static std::uint64_t
    regionBit(Addr va, ProcId asid)
    {
        return std::uint64_t{1}
               << (((va >> kRegionShift) + asid * 11) & 63);
    }

    PageSize ps_;
    /** pageShift(ps_), cached so key() is a shift, not a divide. */
    unsigned shift_;
    AssocCache<TlbEntry> cache_;
    /**
     * A superset of the regionBit()s of the live entries: set on
     * insert, never cleared by evictions or scoped flushes, emptied by
     * flushAll(), and rebuilt from the live entries on restore and when
     * holdsWithin() finds its bit set. A clear bit proves the region
     * holds no live entry, so find() and holdsWithin() answer it
     * without a scan.
     */
    std::uint64_t region_bits_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_TLB_TLB_HH
