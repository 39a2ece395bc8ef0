/**
 * @file
 * TLB implementation.
 */

#include "tlb/tlb.hh"

#include <bit>

#include "base/bitfield.hh"

namespace ap
{

namespace
{
/** Virtual page number for this TLB's granule. */
std::uint64_t
vpnOf(Addr va, PageSize ps)
{
    return va >> pageShift(ps);
}
} // namespace

Tlb::Tlb(const std::string &name, stats::StatGroup *parent,
         std::size_t entries, std::size_t ways, PageSize ps)
    : stats::StatGroup(name, parent),
      hits(this, "hits", "translations served by this TLB"),
      misses(this, "misses", "probes that missed"),
      evictions(this, "evictions", "valid entries displaced"),
      ps_(ps),
      shift_(pageShift(ps)),
      cache_(entries, ways)
{
}

std::optional<TlbEntry>
Tlb::lookup(Addr va, ProcId asid)
{
    if (const TlbEntry *e = find(va, asid))
        return *e;
    return std::nullopt;
}

bool
Tlb::contains(Addr va, ProcId asid) const
{
    return cache_.peek(key(va, asid)) != nullptr;
}

void
Tlb::rebuildRegionBits()
{
    std::uint64_t bits = 0;
    forEach([&](Addr va, ProcId asid, const TlbEntry &) {
        bits |= regionBit(va, asid);
    });
    region_bits_ = bits;
}

bool
Tlb::holdsWithin(Addr va, ProcId asid, PageSize region)
{
    // A clear bit proves the 2M summary region around va empty, and
    // with it every region, none being wider.
    if (!(region_bits_ & regionBit(va, asid)))
        return false;
    const Addr mask = ~(pageBytes(region) - 1);
    bool found = false;
    std::uint64_t bits = 0;
    forEach([&](Addr eva, ProcId easid, const TlbEntry &) {
        bits |= regionBit(eva, easid);
        found |= easid == asid && ((eva ^ va) & mask) == 0;
    });
    region_bits_ = bits;
    return found;
}

bool
Tlb::mayHoldRange(Addr base, Addr last, ProcId asid) const
{
    const std::uint64_t regions =
        (last >> kRegionShift) - (base >> kRegionShift);
    if (regions >= 63)
        return region_bits_ != 0;
    // The regions of [base, last] own consecutive bits (mod 64),
    // starting at base's: regions + 1 ones rotated to that bit.
    const std::uint64_t run = (std::uint64_t{2} << regions) - 1;
    const unsigned start = std::countr_zero(regionBit(base, asid));
    return (region_bits_ & std::rotl(run, static_cast<int>(start))) != 0;
}

void
Tlb::flushPage(Addr va, ProcId asid)
{
    cache_.erase(key(va, asid));
}

void
Tlb::flushAsid(ProcId asid)
{
    cache_.eraseIf([asid](std::uint64_t k, const TlbEntry &) {
        return (k >> kAsidKeyShift) == asid;
    });
}

void
Tlb::flushRange(Addr base, Addr len, ProcId asid)
{
    // An empty range must not underflow base + len - 1 below: with
    // base == 0 that wraps to the top of the address space and turns
    // a no-op into a full-ASID flush.
    if (len == 0)
        return;
    const Addr last = rangeLast(base, len);
    if (!mayHoldRange(base, last, asid))
        return;
    eraseTaggedRange(cache_, asid, vpnOf(base, ps_), vpnOf(last, ps_));
}

void
Tlb::flushAll()
{
    cache_.clear();
    region_bits_ = 0;
}

} // namespace ap
