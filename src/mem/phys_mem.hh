/**
 * @file
 * Host physical memory: a typed frame allocator.
 *
 * Every byte of simulated state lives in a host frame. A frame is either
 * a data page (carrying a content id used by the dedup/page-sharing
 * machinery) or a page-table page (carrying 512 architectural PTEs).
 * Guest "physical" frames are backed by host frames; the mapping is owned
 * by the VMM, not by this class.
 */

#ifndef AGILEPAGING_MEM_PHYS_MEM_HH
#define AGILEPAGING_MEM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/types.hh"
#include "mem/pte.hh"

namespace ap
{

/** One page worth of page-table entries. */
using PtPage = std::array<Pte, kPtEntries>;

/** What a host frame currently holds. */
enum class FrameKind : std::uint8_t
{
    Free,
    /** Application/guest data page. */
    Data,
    /** A page of some page table (guest, host, or shadow). */
    PageTable,
};

/** Which page table a PageTable frame belongs to (for accounting). */
enum class TableOwner : std::uint8_t
{
    None,
    GuestPt,
    HostPt,
    ShadowPt,
    NativePt,
};

/**
 * The host physical memory pool.
 *
 * Frame 0 is reserved and never allocated so that pfn 0 can serve as a
 * "null" value in tests and table roots are always non-zero.
 */
class PhysMem
{
  public:
    /** @param frames capacity of the pool in 4 KB frames (>= 1). */
    explicit PhysMem(std::uint64_t frames);

    /**
     * Allocate a data frame.
     * @param content_id synthetic page-content identifier (dedup key)
     * @return the frame, or kNoFrame when the pool is exhausted
     */
    FrameId allocData(std::uint64_t content_id = 0);

    /**
     * Allocate @p n contiguous, naturally aligned data frames (large-
     * page backing). Served from the untouched tail of the pool only.
     * @return the first frame, or kNoFrame when it cannot be satisfied
     */
    FrameId allocDataContiguous(std::uint64_t n,
                                std::uint64_t content_id = 0);

    /**
     * Allocate a zeroed page-table frame.
     * @return the frame, or kNoFrame when the pool is exhausted
     */
    FrameId allocTable(TableOwner owner);

    /** Release a frame back to the pool. @pre frame is allocated. */
    void free(FrameId frame);

    /**
     * @return mutable PTE array of a PageTable frame.
     *
     * This is the single hottest call in the simulator (every walker
     * level, every functional page-table op), so it is an inline
     * two-load array index; the assert collapses bounds and kind
     * checks into one branch (tables_[f] is non-null exactly for
     * PageTable frames, and tables_ ends at the high-water mark).
     */
    PtPage &
    table(FrameId frame)
    {
        ap_assert(frame < tables_.size() && tables_[frame],
                  "frame ", frame, " is not a page-table frame");
        return *tables_[frame];
    }

    const PtPage &
    table(FrameId frame) const
    {
        ap_assert(frame < tables_.size() && tables_[frame],
                  "frame ", frame, " is not a page-table frame");
        return *tables_[frame];
    }

    /**
     * Unchecked view of the frame-to-table mapping, for walks that
     * must not panic on a frame that holds no page-table page (the
     * walker's architectural leaf resolution): null unless @p frame
     * currently holds one.
     */
    const PtPage *
    tableOrNull(FrameId frame) const
    {
        return frame < tables_.size() ? tables_[frame].get() : nullptr;
    }

    /** Kind/owner of a frame; Free/None for one never handed out. */
    FrameKind kind(FrameId frame) const;
    TableOwner owner(FrameId frame) const;

    /** Content id of a Data frame (dedup key). */
    std::uint64_t contentId(FrameId frame) const;
    void setContentId(FrameId frame, std::uint64_t content_id);

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t freeFrames() const { return capacity_ - allocated_; }

    /** Frames currently allocated per table owner (for stats). */
    std::uint64_t tableFrames(TableOwner owner) const;

    /** Sentinel returned when allocation fails. */
    static constexpr FrameId kNoFrame = 0;

    /**
     * Snapshot support. Serializes every frame that has ever been
     * handed out ([1, next_fresh_)) plus the allocator bookkeeping,
     * each page-table frame with its PTE page. restoreState targets a
     * newly built PhysMem and rejects (latches failure on) allocator
     * state that would index outside the frame tables and malformed
     * frame records. A rejected record leaves this PhysMem untouched.
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    /** Plain-data per-frame record; a PageTable frame's PTEs live in
     *  its tables_ slot. */
    struct FrameInfo
    {
        FrameKind kind = FrameKind::Free;
        TableOwner owner = TableOwner::None;
        std::uint64_t contentId = 0;
    };

    FrameId allocRaw();
    /** Advance the high-water mark to @p end, growing the tables. */
    void growTo(FrameId end);
    const FrameInfo &info(FrameId frame) const;

    std::uint64_t capacity_;
    std::uint64_t allocated_ = 0;
    std::uint64_t next_fresh_ = 1; // frame 0 reserved
    std::vector<FrameId> free_list_;
    /**
     * Per-frame state, indexed by frame id. Both tables hold exactly
     * next_fresh_ entries — the frames ever handed out plus the
     * reserved frame 0 — so construction, snapshot and restore cost
     * what the machine touched, not its configured capacity.
     */
    std::vector<FrameInfo> frames_;
    /** Frame -> PTE page; non-null exactly for PageTable frames. */
    std::vector<std::unique_ptr<PtPage>> tables_;
    std::array<std::uint64_t, 5> table_counts_{};
};

} // namespace ap

#endif // AGILEPAGING_MEM_PHYS_MEM_HH
