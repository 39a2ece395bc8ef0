/**
 * @file
 * Generic 4-level x86-64-style radix page table.
 *
 * One RadixPageTable instance models a guest page table, a host (nested)
 * page table, a shadow page table, or a native page table — the entry
 * format is shared (mem/pte.hh). The table's pages live in a PtSpace,
 * an address space abstraction: host-resident tables allocate directly
 * from host physical memory, while guest page tables allocate guest
 * physical frames that the VMM backs with host frames.
 *
 * All operations here are *functional* (no cost accounting). Hardware
 * walk costs are modelled by walker/, which re-reads the same entries
 * frame by frame and charges one memory reference per access.
 */

#ifndef AGILEPAGING_MEM_PAGE_TABLE_HH
#define AGILEPAGING_MEM_PAGE_TABLE_HH

#include <optional>
#include <string>
#include <type_traits>

#include "base/bitfield.hh"
#include "base/types.hh"
#include "mem/phys_mem.hh"

namespace ap
{

/**
 * Storage/address space a page table's pages live in.
 *
 * Frames returned by allocTablePage() are meaningful only within this
 * space: host frames for host/shadow/native tables, guest frames for
 * guest tables.
 */
class PtSpace
{
  public:
    virtual ~PtSpace() = default;

    /** Resolve a table page within this space. */
    virtual PtPage &page(FrameId frame) = 0;
    virtual const PtPage &page(FrameId frame) const = 0;

    /** Allocate a zeroed table page; PhysMem::kNoFrame on exhaustion. */
    virtual FrameId allocTablePage() = 0;

    /** Release a table page. */
    virtual void freeTablePage(FrameId frame) = 0;
};

/** PtSpace for tables resident directly in host physical memory. */
class HostPtSpace : public PtSpace
{
  public:
    HostPtSpace(PhysMem &mem, TableOwner owner) : mem_(mem), owner_(owner) {}

    PtPage &page(FrameId frame) override { return mem_.table(frame); }

    const PtPage &
    page(FrameId frame) const override
    {
        return mem_.table(frame);
    }

    FrameId allocTablePage() override { return mem_.allocTable(owner_); }
    void freeTablePage(FrameId frame) override { mem_.free(frame); }

  private:
    PhysMem &mem_;
    TableOwner owner_;
};

/** A resolved translation returned by RadixPageTable::lookup. */
struct PtMapping
{
    /** Mapped frame (of the final page). */
    FrameId pfn;
    /** Granule the mapping was installed with. */
    PageSize size;
    /** Walk depth of the terminal entry. */
    unsigned depth;
    /** Copy of the terminal entry. */
    Pte pte;
};

/**
 * The radix table.
 *
 * A root table page is allocated at construction and freed (with every
 * descendant page) at destruction.
 */
class RadixPageTable
{
  public:
    /**
     * @param space address space the table's pages live in
     * @param name  debug name ("gPT[3]", "sPT[3]", "hPT", ...)
     */
    RadixPageTable(PtSpace &space, std::string name);
    ~RadixPageTable();

    /** Tag selecting the deferred-restore constructor. */
    struct ForRestore
    {
    };

    /**
     * Construct without allocating a root: the table is an empty shell
     * until restoreState() adopts a root whose pages already exist in
     * @p space (snapshot restore rebuilds the space's pages first).
     */
    RadixPageTable(PtSpace &space, std::string name, ForRestore);

    /**
     * Adopt an already-materialized tree. @p root must be a live table
     * page in the space and @p page_count the number of table pages
     * reachable from it (incl. the root).
     */
    void
    restoreState(FrameId root, std::uint64_t page_count)
    {
        root_ = root;
        page_count_ = page_count;
    }

    RadixPageTable(const RadixPageTable &) = delete;
    RadixPageTable &operator=(const RadixPageTable &) = delete;

    /** Frame (within the table's space) of the root table page. */
    FrameId root() const { return root_; }

    const std::string &name() const { return name_; }

    /**
     * Install a leaf mapping for @p va.
     *
     * Intermediate table pages are created on demand. If a conflicting
     * subtree exists under the target entry (e.g., 4 KB mappings where a
     * 2 MB page is being installed) the subtree is freed first.
     *
     * @return pointer to the installed entry, or nullptr if table-page
     *         allocation failed (space exhausted).
     */
    Pte *map(Addr va, FrameId pfn, PageSize ps, bool writable,
             bool user = true);

    /**
     * Remove the mapping covering @p va (any granule).
     * @return true if a mapping was removed.
     */
    bool unmap(Addr va);

    /**
     * Resolve @p va to a mapping, if present.
     *
     * Entries with the switching bit set (partial shadow tables) are
     * treated as terminal and reported with their depth; callers that
     * care (the agile walker) inspect PtMapping::pte.switching.
     */
    std::optional<PtMapping> lookup(Addr va) const;

    /**
     * @return the entry for @p va at walk depth @p depth, or nullptr if
     * the path to it does not exist. Never allocates.
     */
    Pte *entry(Addr va, unsigned depth);
    const Pte *entry(Addr va, unsigned depth) const;

    /**
     * Create the path to depth @p depth and return the entry there.
     * @return nullptr on allocation failure.
     */
    Pte *ensurePath(Addr va, unsigned depth);

    /**
     * @return frame holding the table page that contains the entry for
     * @p va at @p depth, or PhysMem::kNoFrame if the path is absent.
     * Depth 0 always returns the root frame.
     */
    FrameId tableFrame(Addr va, unsigned depth) const;

    /**
     * Remove the entry for @p va at @p depth, freeing the subtree below
     * it (used when the VMM invalidates part of a shadow table).
     * @return true if a valid entry was removed.
     */
    bool invalidateEntry(Addr va, unsigned depth);

    /** Drop every mapping; the root page is retained but zeroed. */
    void clear();

    /**
     * Visit, in ascending VA order, every terminal entry (leaf mapping
     * or switching entry) whose VA is at least @p from, as
     * @p fn(va, entry, depth). Subtrees wholly below @p from are not
     * read, and a large terminal that starts below @p from is not
     * visited even if it covers it. @p fn returns void, or bool where
     * false stops the walk.
     */
    template <typename Fn>
    void
    forEachTerminal(Fn &&fn, Addr from = 0) const
    {
        visitTerminals(root_, 0, 0, from, fn);
    }

    /** Number of table pages currently allocated (incl. root). */
    std::uint64_t pageCount() const { return page_count_; }

    /** Number of terminal (valid leaf or switching) entries. */
    std::uint64_t mappingCount() const;

  private:
    void freeSubtree(FrameId frame, unsigned depth);

    /** forEachTerminal() below the table page @p frame at @p depth,
     *  which maps VAs from @p base. @return false if @p fn stopped. */
    template <typename Fn>
    bool
    visitTerminals(FrameId frame, unsigned depth, Addr base, Addr from,
                   Fn &fn) const
    {
        const Addr span = spanAtDepth(depth);
        const PtPage &page = space_.page(frame);
        for (Addr i = from > base ? (from - base) / span : 0;
             i < kPtEntries; ++i) {
            const Pte &pte = page[i];
            if (!pte.valid)
                continue;
            Addr va = base + i * span;
            if (!isTerminal(pte, depth)) {
                if (!visitTerminals(pte.pfn, depth + 1, va, from, fn))
                    return false;
            } else if (va >= from) {
                if constexpr (std::is_void_v<std::invoke_result_t<
                                  Fn &, Addr, const Pte &, unsigned>>) {
                    fn(va, pte, depth);
                } else if (!fn(va, pte, depth)) {
                    return false;
                }
            }
        }
        return true;
    }

    /** True if @p pte terminates a walk at @p depth. */
    static bool
    isTerminal(const Pte &pte, unsigned depth)
    {
        return pte.valid &&
               (endsWalk(depth, pte.pageSize) || pte.switching);
    }

    PtSpace &space_;
    std::string name_;
    FrameId root_;
    std::uint64_t page_count_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_MEM_PAGE_TABLE_HH
