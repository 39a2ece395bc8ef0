/**
 * @file
 * Host physical frame allocator implementation.
 */

#include "mem/phys_mem.hh"

#include <algorithm>

#include "base/logging.hh"
#include "mem/frame_alloc.hh"

namespace ap
{

PhysMem::PhysMem(std::uint64_t frames) : capacity_(frames)
{
    ap_assert(frames >= 1, "PhysMem needs at least 1 frame");
    // Index 0 is the reserved null frame; usable ids are 1..capacity_,
    // and the tables grow as fresh ids are handed out.
    growTo(next_fresh_);
}

void
PhysMem::growTo(FrameId end)
{
    // std::vector grows its storage geometrically, so handing fresh
    // frames out one at a time stays amortised O(1) per frame.
    next_fresh_ = end;
    frames_.resize(end);
    tables_.resize(end);
}

FrameId
PhysMem::allocRaw()
{
    if (!free_list_.empty()) {
        FrameId f = free_list_.back();
        free_list_.pop_back();
        ++allocated_;
        return f;
    }
    if (next_fresh_ <= capacity_) {
        FrameId f = next_fresh_;
        growTo(f + 1);
        ++allocated_;
        return f;
    }
    return kNoFrame;
}

FrameId
PhysMem::allocData(std::uint64_t content_id)
{
    FrameId f = allocRaw();
    if (f == kNoFrame)
        return kNoFrame;
    FrameInfo &fi = frames_[f];
    fi.kind = FrameKind::Data;
    fi.owner = TableOwner::None;
    fi.contentId = content_id;
    return f;
}

FrameId
PhysMem::allocDataContiguous(std::uint64_t n, std::uint64_t content_id)
{
    ap_assert(n >= 1, "allocDataContiguous(0)");
    FrameId first = ((next_fresh_ + n - 1) / n) * n;
    if (first + n - 1 <= capacity_) {
        // Frames skipped to reach alignment stay available for 4K use.
        for (FrameId f = next_fresh_; f < first; ++f)
            free_list_.push_back(f);
        growTo(first + n);
    } else if (n == 1) {
        return allocData(content_id);
    } else {
        // Fresh region exhausted: recycle an aligned run of freed
        // frames so large-page churn cannot exhaust a mostly-free pool.
        first = claimContiguousRun(free_list_, n);
        if (first == kNoFrame)
            return kNoFrame;
    }
    allocated_ += n;
    for (FrameId f = first; f < first + n; ++f) {
        FrameInfo &fi = frames_[f];
        fi.kind = FrameKind::Data;
        fi.owner = TableOwner::None;
        fi.contentId = content_id;
    }
    return first;
}

FrameId
PhysMem::allocTable(TableOwner owner)
{
    FrameId f = allocRaw();
    if (f == kNoFrame)
        return kNoFrame;
    FrameInfo &fi = frames_[f];
    fi.kind = FrameKind::PageTable;
    fi.owner = owner;
    fi.contentId = 0;
    tables_[f] = std::make_unique<PtPage>();
    ++table_counts_[static_cast<std::size_t>(owner)];
    return f;
}

void
PhysMem::free(FrameId frame)
{
    ap_assert(kind(frame) != FrameKind::Free, "double free of frame ",
              frame);
    FrameInfo &fi = frames_[frame];
    if (fi.kind == FrameKind::PageTable) {
        --table_counts_[static_cast<std::size_t>(fi.owner)];
        tables_[frame].reset();
    }
    fi = FrameInfo{};
    --allocated_;
    free_list_.push_back(frame);
}

FrameKind
PhysMem::kind(FrameId frame) const
{
    return info(frame).kind;
}

TableOwner
PhysMem::owner(FrameId frame) const
{
    return info(frame).owner;
}

std::uint64_t
PhysMem::contentId(FrameId frame) const
{
    const FrameInfo &fi = info(frame);
    ap_assert(fi.kind == FrameKind::Data, "contentId of non-data frame");
    return fi.contentId;
}

void
PhysMem::setContentId(FrameId frame, std::uint64_t content_id)
{
    ap_assert(kind(frame) == FrameKind::Data,
              "setContentId of non-data frame");
    frames_[frame].contentId = content_id;
}

std::uint64_t
PhysMem::tableFrames(TableOwner owner) const
{
    return table_counts_[static_cast<std::size_t>(owner)];
}

void
PhysMem::saveState(Serializer &s) const
{
    s.putMarker(0x4d454d50); // "PMEM"
    s.putU64(capacity_);
    s.putU64(allocated_);
    s.putU64(next_fresh_);
    s.putPodVector(free_list_);
    for (std::uint64_t c : table_counts_)
        s.putU64(c);
    for (FrameId f = 1; f < next_fresh_; ++f) {
        const FrameInfo &fi = frames_[f];
        s.putU8(static_cast<std::uint8_t>(fi.kind));
        s.putU8(static_cast<std::uint8_t>(fi.owner));
        s.putU64(fi.contentId);
        const PtPage *page = tables_[f].get();
        s.putBool(page != nullptr);
        if (page) {
            static_assert(std::is_trivially_copyable_v<Pte>,
                          "Pte must be raw-serializable");
            s.putRaw(page->data(), sizeof(PtPage));
        }
    }
}

void
PhysMem::restoreState(Deserializer &d)
{
    // Everything is decoded into locals and committed only once the
    // whole record validates: a refused image leaves this machine's
    // own table pages in place, so its page tables still tear down.
    d.checkMarker(0x4d454d50);
    if (d.getU64() != capacity_) {
        d.fail();
        return;
    }
    const std::uint64_t allocated = d.getU64();
    const std::uint64_t next_fresh = d.getU64();
    std::vector<FrameId> free_list;
    d.getPodVector(free_list);
    std::array<std::uint64_t, 5> table_counts{};
    for (std::uint64_t &c : table_counts)
        c = d.getU64();
    // Every later allocation indexes the frame tables with these
    // values, so an image whose cursor or free list points outside
    // [1, next_fresh) is rejected before anything is sized from it.
    auto outside = [&](FrameId f) { return f < 1 || f >= next_fresh; };
    if (!d.ok() || next_fresh < 1 || next_fresh > capacity_ + 1 ||
        allocated >= next_fresh ||
        std::any_of(free_list.begin(), free_list.end(), outside)) {
        d.fail();
        return;
    }
    // The tables grow to the image's high-water mark; every table
    // page is read whole from the image, so none is zero-filled first.
    std::vector<FrameInfo> frames(next_fresh);
    std::vector<std::unique_ptr<PtPage>> tables(next_fresh);
    for (FrameId f = 1; f < next_fresh; ++f) {
        FrameInfo &fi = frames[f];
        std::uint8_t kind = d.getU8();
        std::uint8_t owner = d.getU8();
        fi.contentId = d.getU64();
        bool has_table = d.getBool();
        if (kind > static_cast<std::uint8_t>(FrameKind::PageTable) ||
            owner >= table_counts.size() ||
            has_table != (kind == static_cast<std::uint8_t>(
                                      FrameKind::PageTable))) {
            d.fail();
        }
        if (!d.ok())
            return;
        fi.kind = static_cast<FrameKind>(kind);
        fi.owner = static_cast<TableOwner>(owner);
        if (has_table) {
            tables[f] = std::make_unique_for_overwrite<PtPage>();
            d.getRaw(tables[f]->data(), sizeof(PtPage));
        }
    }
    if (!d.ok())
        return;
    allocated_ = allocated;
    next_fresh_ = next_fresh;
    free_list_ = std::move(free_list);
    table_counts_ = table_counts;
    frames_ = std::move(frames);
    tables_ = std::move(tables);
}

const PhysMem::FrameInfo &
PhysMem::info(FrameId frame) const
{
    ap_assert(frame > 0 && frame <= capacity_, "bad frame id ", frame);
    static const FrameInfo kNeverHandedOut{};
    return frame < frames_.size() ? frames_[frame] : kNeverHandedOut;
}

} // namespace ap
