/**
 * @file
 * Fundamental types shared by every subsystem: addresses, cycles,
 * page-size enumeration and the x86-64 radix page-table geometry.
 *
 * The simulator models a 4-level x86-64-style page table. Walk depths are
 * numbered from the root: depth 0 is the top level (the paper's "L4" /
 * PML4) and depth 3 is the leaf (the paper's "L1" / PTE). The paper's
 * level names are recovered with @ref ap::paperLevelName.
 */

#ifndef AGILEPAGING_BASE_TYPES_HH
#define AGILEPAGING_BASE_TYPES_HH

#include <cstdint>
#include <string>

namespace ap
{

/** A physical or virtual address (host or guest; 64-bit). */
using Addr = std::uint64_t;

/** Simulated cycle count. */
using Cycles = std::uint64_t;

/** Monotonic simulated time in "instructions executed" units. */
using Tick = std::uint64_t;

/** Identifier of a 4 KB physical frame: addr >> 12. */
using FrameId = std::uint64_t;

/** Identifier of a guest process inside a VM. */
using ProcId = std::uint32_t;

/** Number of bits in a 4 KB page offset. */
inline constexpr unsigned kPageShift = 12;

/** Size in bytes of a base (4 KB) page. */
inline constexpr Addr kPageBytes = Addr{1} << kPageShift;

/** Bits of virtual address consumed by one radix level. */
inline constexpr unsigned kLevelBits = 9;

/** Entries per page-table page (512 for x86-64). */
inline constexpr unsigned kPtEntries = 1u << kLevelBits;

/** Number of radix levels in a full walk (x86-64: PML4..PTE). */
inline constexpr unsigned kPtLevels = 4;

/** Size in bytes of a 2 MB large page. */
inline constexpr Addr kLargePageBytes = Addr{1} << (kPageShift + kLevelBits);

/**
 * Supported translation granules. 2 MB is the largest: the paper
 * measures 4 KB and 2 MB pages only.
 */
enum class PageSize : std::uint8_t
{
    Size4K,
    Size2M,
};

/** @return the byte size of a translation granule. */
constexpr Addr
pageBytes(PageSize ps)
{
    return ps == PageSize::Size2M ? kLargePageBytes : kPageBytes;
}

/** @return log2 of pageBytes(ps); VA >> pageShift(ps) is the VPN. */
constexpr unsigned
pageShift(PageSize ps)
{
    return ps == PageSize::Size2M ? kPageShift + kLevelBits : kPageShift;
}

/**
 * @return the walk depth at which a mapping of the given size terminates.
 * A 4 KB mapping is installed at depth 3 (leaf), a 2 MB mapping at depth 2.
 */
constexpr unsigned
leafDepth(PageSize ps)
{
    return ps == PageSize::Size2M ? kPtLevels - 2 : kPtLevels - 1;
}

/**
 * @return true if an entry at walk depth @p depth whose page-size bit
 * is @p page_size_bit maps a page (ends the walk) rather than pointing
 * at the next table level. A page-size bit counts only at the 2 MB
 * depth; the last level always maps a 4 KB page.
 */
constexpr bool
endsWalk(unsigned depth, bool page_size_bit)
{
    return depth == kPtLevels - 1 ||
           (page_size_bit && depth == leafDepth(PageSize::Size2M));
}

/** @return the granule of a page mapped by an entry that endsWalk()
 *  at walk depth @p depth. */
constexpr PageSize
sizeAtDepth(unsigned depth)
{
    return depth == kPtLevels - 1 ? PageSize::Size4K : PageSize::Size2M;
}

/** @return a short printable name for a page size. */
constexpr const char *
pageSizeName(PageSize ps)
{
    return ps == PageSize::Size2M ? "2M" : "4K";
}

/**
 * @return the paper's level name for a walk depth (depth 0 == "L4", the
 * root; depth 3 == "L1", the leaf PTE).
 */
inline std::string
paperLevelName(unsigned depth)
{
    return "L" + std::to_string(kPtLevels - depth);
}

/** Memory-virtualization technique selected for a guest process. */
enum class VirtMode : std::uint8_t
{
    /** Unvirtualized baseline: 1D walk of a single page table. */
    Native,
    /** Hardware nested paging: 2D walk of guest + host tables. */
    Nested,
    /** Software shadow paging: 1D walk of a merged shadow table. */
    Shadow,
    /** The paper's contribution: shadow walk with per-entry switch. */
    Agile,
    /** SHSP baseline: whole-process dynamic switching (Wang et al.). */
    Shsp,
    /** Range/segment translation: base+limit segment registers over
     *  contiguous guest VMAs, nested-walk fallback (Teabe et al.). */
    Range,
};

/** @return a short printable name for a virtualization mode. */
constexpr const char *
virtModeName(VirtMode m)
{
    switch (m) {
      case VirtMode::Native:
        return "Native";
      case VirtMode::Nested:
        return "Nested";
      case VirtMode::Shadow:
        return "Shadow";
      case VirtMode::Agile:
        return "Agile";
      case VirtMode::Shsp:
        return "SHSP";
      case VirtMode::Range:
        return "Range";
    }
    return "?";
}

} // namespace ap

#endif // AGILEPAGING_BASE_TYPES_HH
