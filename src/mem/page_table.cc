/**
 * @file
 * Radix page table implementation.
 */

#include "mem/page_table.hh"

#include "base/logging.hh"

namespace ap
{

RadixPageTable::RadixPageTable(PtSpace &space, std::string name)
    : space_(space), name_(std::move(name))
{
    root_ = space_.allocTablePage();
    ap_assert(root_ != PhysMem::kNoFrame,
              "cannot allocate root for ", name_);
    page_count_ = 1;
}

RadixPageTable::RadixPageTable(PtSpace &space, std::string name, ForRestore)
    : space_(space), name_(std::move(name)), root_(PhysMem::kNoFrame)
{
}

RadixPageTable::~RadixPageTable()
{
    // A deferred-restore shell that never adopted a root owns nothing.
    if (root_ == PhysMem::kNoFrame)
        return;
    clear();
    space_.freeTablePage(root_);
    --page_count_;
}

void
RadixPageTable::freeSubtree(FrameId frame, unsigned depth)
{
    // Free all table pages strictly below (frame, depth). Terminal
    // entries point at data pages (or guest-table pages for switching
    // entries) that this table does not own.
    if (depth >= kPtLevels - 1)
        return;
    PtPage &page = space_.page(frame);
    for (Pte &pte : page) {
        if (pte.valid && !isTerminal(pte, depth)) {
            freeSubtree(pte.pfn, depth + 1);
            space_.freeTablePage(pte.pfn);
            --page_count_;
        }
        pte = Pte{};
    }
}

Pte *
RadixPageTable::ensurePath(Addr va, unsigned depth)
{
    ap_assert(depth < kPtLevels, "depth out of range");
    FrameId frame = root_;
    for (unsigned d = 0; d < depth; ++d) {
        Pte &pte = space_.page(frame)[ptIndex(va, d)];
        if (!pte.valid || isTerminal(pte, d)) {
            // A terminal entry blocking the path (e.g., an old 2 MB
            // mapping being broken into 4 KB) is replaced by a fresh
            // table page.
            FrameId child = space_.allocTablePage();
            if (child == PhysMem::kNoFrame)
                return nullptr;
            ++page_count_;
            pte = Pte{};
            pte.valid = true;
            pte.writable = true;
            pte.pfn = child;
        }
        frame = pte.pfn;
    }
    return &space_.page(frame)[ptIndex(va, depth)];
}

Pte *
RadixPageTable::map(Addr va, FrameId pfn, PageSize ps, bool writable,
                    bool user)
{
    unsigned depth = leafDepth(ps);
    ap_assert(isAligned(va, ps), "map of unaligned va 0x", std::hex, va);
    Pte *pte = ensurePath(va, depth);
    if (!pte)
        return nullptr;
    if (pte->valid && !isTerminal(*pte, depth)) {
        // Replacing a subtree (e.g., promoting 4 KB pages to 2 MB).
        freeSubtree(pte->pfn, depth + 1);
        space_.freeTablePage(pte->pfn);
        --page_count_;
    }
    *pte = Pte{};
    pte->valid = true;
    pte->writable = writable;
    pte->user = user;
    pte->pfn = pfn;
    pte->pageSize = (depth != kPtLevels - 1);
    return pte;
}

bool
RadixPageTable::unmap(Addr va)
{
    FrameId frame = root_;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        Pte &pte = space_.page(frame)[ptIndex(va, d)];
        if (!pte.valid)
            return false;
        if (isTerminal(pte, d)) {
            pte = Pte{};
            return true;
        }
        frame = pte.pfn;
    }
    return false;
}

std::optional<PtMapping>
RadixPageTable::lookup(Addr va) const
{
    FrameId frame = root_;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        const Pte &pte = space_.page(frame)[ptIndex(va, d)];
        if (!pte.valid)
            return std::nullopt;
        if (isTerminal(pte, d)) {
            PtMapping m;
            m.pfn = pte.pfn;
            m.depth = d;
            m.pte = pte;
            m.size = sizeAtDepth(d);
            return m;
        }
        frame = pte.pfn;
    }
    return std::nullopt;
}

Pte *
RadixPageTable::entry(Addr va, unsigned depth)
{
    ap_assert(depth < kPtLevels, "depth out of range");
    FrameId frame = root_;
    for (unsigned d = 0; d < depth; ++d) {
        const Pte &pte = space_.page(frame)[ptIndex(va, d)];
        if (!pte.valid || isTerminal(pte, d))
            return nullptr;
        frame = pte.pfn;
    }
    return &space_.page(frame)[ptIndex(va, depth)];
}

const Pte *
RadixPageTable::entry(Addr va, unsigned depth) const
{
    return const_cast<RadixPageTable *>(this)->entry(va, depth);
}

FrameId
RadixPageTable::tableFrame(Addr va, unsigned depth) const
{
    ap_assert(depth < kPtLevels, "depth out of range");
    FrameId frame = root_;
    for (unsigned d = 0; d < depth; ++d) {
        const Pte &pte = space_.page(frame)[ptIndex(va, d)];
        if (!pte.valid || isTerminal(pte, d))
            return PhysMem::kNoFrame;
        frame = pte.pfn;
    }
    return frame;
}

bool
RadixPageTable::invalidateEntry(Addr va, unsigned depth)
{
    Pte *pte = entry(va, depth);
    if (!pte || !pte->valid)
        return false;
    if (!isTerminal(*pte, depth)) {
        freeSubtree(pte->pfn, depth + 1);
        space_.freeTablePage(pte->pfn);
        --page_count_;
    }
    *pte = Pte{};
    return true;
}

void
RadixPageTable::clear()
{
    freeSubtree(root_, 0);
}

std::uint64_t
RadixPageTable::mappingCount() const
{
    std::uint64_t n = 0;
    forEachTerminal([&n](Addr, const Pte &, unsigned) { ++n; });
    return n;
}

} // namespace ap
