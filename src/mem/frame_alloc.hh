/**
 * @file
 * A storage-less frame-id allocator used for guest physical address
 * spaces: the guest OS hands out gPA frames from this pool, and the
 * VMM separately decides which host frames back them.
 */

#ifndef AGILEPAGING_MEM_FRAME_ALLOC_HH
#define AGILEPAGING_MEM_FRAME_ALLOC_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "base/types.hh"

namespace ap
{

/**
 * Carve an @p n-aligned run of @p n consecutive frame ids out of
 * @p free_list (sorting it in place), or return 0 when none exists.
 *
 * Freed large-page groups come back one frame at a time, so the only
 * way to recycle them for a later contiguous allocation is to sort and
 * scan. Callers pay this only when their bump region is exhausted —
 * the state in which the alternative is failing the allocation.
 */
inline FrameId
claimContiguousRun(std::vector<FrameId> &free_list, std::uint64_t n)
{
    std::sort(free_list.begin(), free_list.end());
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < free_list.size(); ++i) {
        if (run > 0 && free_list[i] == free_list[i - 1] + 1) {
            ++run;
        } else {
            run = free_list[i] % n == 0 ? 1 : 0;
        }
        if (run == n) {
            std::size_t begin = i + 1 - n;
            FrameId f = free_list[begin];
            free_list.erase(free_list.begin() +
                                static_cast<std::ptrdiff_t>(begin),
                            free_list.begin() +
                                static_cast<std::ptrdiff_t>(i + 1));
            return f;
        }
    }
    return 0;
}

/**
 * Allocates frame ids 1..capacity (0 is the null frame, as in PhysMem).
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(std::uint64_t capacity) : capacity_(capacity)
    {
        ap_assert(capacity >= 1, "FrameAllocator needs capacity");
    }

    /** @return a frame id, or 0 when exhausted. */
    FrameId
    alloc()
    {
        if (!free_list_.empty()) {
            FrameId f = free_list_.back();
            free_list_.pop_back();
            ++allocated_;
            ++recycles_;
            noteHighWater();
            return f;
        }
        if (next_ <= capacity_) {
            ++allocated_;
            noteHighWater();
            return next_++;
        }
        return 0;
    }

    /**
     * Allocate @p n physically contiguous, naturally aligned frames
     * (for large-page backing). Served from the fresh region while it
     * lasts, then from aligned runs of freed frames — without the
     * fallback, large-page churn (fork COW, mmap/munmap) burns through
     * the pool monotonically and exhausts it even when almost every
     * frame is free.
     * @return first frame id, or 0 when exhausted.
     */
    FrameId
    allocContiguous(std::uint64_t n)
    {
        ap_assert(n >= 1, "allocContiguous(0)");
        FrameId first = ((next_ + n - 1) / n) * n; // align to n
        if (first + n - 1 <= capacity_) {
            // Frames skipped by alignment go to the free list.
            for (FrameId f = next_; f < first; ++f) {
                free_list_.push_back(f);
            }
            next_ = first + n;
            allocated_ += n;
            noteHighWater();
            return first;
        }
        if (n == 1)
            return alloc();
        FrameId f = claimContiguousRun(free_list_, n);
        if (f) {
            allocated_ += n;
            recycles_ += n;
            noteHighWater();
        }
        return f;
    }

    void
    free(FrameId f)
    {
        ap_assert(f >= 1 && f <= capacity_, "bad frame ", f);
        ap_assert(allocated_ > 0, "free with none allocated");
        --allocated_;
        free_list_.push_back(f);
    }

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t freeFrames() const { return capacity_ - allocated_; }
    /** Allocations served by recycling previously freed ids. */
    std::uint64_t recycles() const { return recycles_; }
    /** Most frame ids ever simultaneously allocated. */
    std::uint64_t highWater() const { return high_water_; }

    /** Snapshot support. The free list is order-exact so future
     *  alloc()/claimContiguousRun() decisions replay identically.
     *  Restore rejects a cursor past capacity + 1 and free-list ids
     *  outside [1, next): callers index per-frame tables with them. */
    void
    saveState(Serializer &s) const
    {
        s.putU64(capacity_);
        s.putU64(allocated_);
        s.putU64(next_);
        s.putPodVector(free_list_);
        s.putU64(recycles_);
        s.putU64(high_water_);
    }

    void
    restoreState(Deserializer &d)
    {
        if (d.getU64() != capacity_) {
            d.fail();
            return;
        }
        allocated_ = d.getU64();
        next_ = d.getU64();
        d.getPodVector(free_list_);
        recycles_ = d.getU64();
        high_water_ = d.getU64();
        auto outside = [this](FrameId f) { return f < 1 || f >= next_; };
        if (next_ < 1 || next_ > capacity_ + 1 || allocated_ >= next_ ||
            std::any_of(free_list_.begin(), free_list_.end(), outside))
            d.fail();
    }

  private:
    void
    noteHighWater()
    {
        if (allocated_ > high_water_)
            high_water_ = allocated_;
    }

    std::uint64_t capacity_;
    std::uint64_t allocated_ = 0;
    FrameId next_ = 1;
    std::vector<FrameId> free_list_;
    std::uint64_t recycles_ = 0;
    std::uint64_t high_water_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_MEM_FRAME_ALLOC_HH
