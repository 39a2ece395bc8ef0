/**
 * @file
 * Address/bitfield helpers for the 4-level radix walk.
 */

#ifndef AGILEPAGING_BASE_BITFIELD_HH
#define AGILEPAGING_BASE_BITFIELD_HH

#include "base/types.hh"

namespace ap
{

/** @return bits [hi:lo] of @p value (inclusive). */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned hi, unsigned lo)
{
    std::uint64_t mask = (hi >= 63) ? ~std::uint64_t{0}
                                    : ((std::uint64_t{1} << (hi + 1)) - 1);
    return (value & mask) >> lo;
}

/**
 * Radix index of a virtual address at a walk depth.
 *
 * Depth 0 selects the root (paper's L4) entry from VA bits [47:39];
 * depth 3 selects the leaf (paper's L1) entry from VA bits [20:12].
 * This is the paper's index(VA, i) helper (Fig. 2).
 */
constexpr unsigned
ptIndex(Addr va, unsigned depth)
{
    unsigned lo = kPageShift + (kPtLevels - 1 - depth) * kLevelBits;
    return static_cast<unsigned>(bits(va, lo + kLevelBits - 1, lo));
}

/** @return the address truncated to the start of its 4 KB page. */
constexpr Addr
pageBase(Addr a)
{
    return a & ~(kPageBytes - 1);
}

/** @return the address truncated to the start of a granule of size @p ps. */
constexpr Addr
pageBase(Addr a, PageSize ps)
{
    return a & ~(pageBytes(ps) - 1);
}

/** @return the 4 KB frame number of an address. */
constexpr FrameId
frameOf(Addr a)
{
    return a >> kPageShift;
}

/** @return the base address of a 4 KB frame. */
constexpr Addr
frameAddr(FrameId f)
{
    return f << kPageShift;
}

/** @return the offset of an address within its 4 KB page. */
constexpr Addr
pageOffset(Addr a)
{
    return a & (kPageBytes - 1);
}

/**
 * Virtual-address span translated by one entry at a walk depth: the root
 * entry (depth 0) covers 512 GB, the leaf entry (depth 3) covers 4 KB.
 */
constexpr Addr
spanAtDepth(unsigned depth)
{
    return Addr{1} << (kPageShift + (kPtLevels - 1 - depth) * kLevelBits);
}

/** @return @p va truncated to the region one depth-@p depth entry maps. */
constexpr Addr
regionBase(Addr va, unsigned depth)
{
    return va & ~(spanAtDepth(depth) - 1);
}

/**
 * Last byte of the range [@p base, @p base + @p len), clamped to the top
 * of the address space when base + len would wrap. @p len must be > 0.
 */
constexpr Addr
rangeLast(Addr base, Addr len)
{
    return len - 1 > ~base ? ~Addr{0} : base + (len - 1);
}

/** @return true if @p a is aligned to a granule of size @p ps. */
constexpr bool
isAligned(Addr a, PageSize ps)
{
    return (a & (pageBytes(ps) - 1)) == 0;
}

} // namespace ap

#endif // AGILEPAGING_BASE_BITFIELD_HH
