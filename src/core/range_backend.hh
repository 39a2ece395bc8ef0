/**
 * @file
 * Range/segment translation backend (the fourth mode).
 *
 * Teabe et al. ("Memory virtualization in virtualized systems:
 * segmentation is better than paging") observe that guest VMAs are
 * overwhelmingly contiguous in host physical memory, so a handful of
 * base+limit segment registers can translate them in zero memory
 * references — paging remains only as a fallback for fragmented
 * regions. This backend models that design on top of the existing
 * nested machinery:
 *
 *  - Each vCPU owns a small segment-register file. A register maps a
 *    contiguous run of guest-virtual 4 KB pages to a contiguous run of
 *    host frames for one address space.
 *  - A walk first probes the file. A hit is validated against the
 *    current architectural nested translation (so a segment can make a
 *    walk cheaper, never wrong), costs zero walk references, and
 *    applies the same leaf accessed/dirty side effects a real walk
 *    would.
 *  - A miss falls back to the ordinary 2D nested walk, then scans the
 *    neighbourhood for host-contiguous pages; a long enough run is
 *    installed into the file (evicting the LRU register — a spill —
 *    when full) and charged segmentFillCycles of setup cost.
 *  - Invalidations ride the CoherenceDomain: every munmap/COW/reclaim
 *    broadcast that flushes the TLBs also drops overlapping segments,
 *    on every vCPU. A segment that outlives its mapping is exactly the
 *    stale-translation bug the difftest's residency sweep hunts.
 */

#ifndef AGILEPAGING_CORE_RANGE_BACKEND_HH
#define AGILEPAGING_CORE_RANGE_BACKEND_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "base/types.hh"
#include "tlb/coherence.hh"
#include "walker/backend.hh"

namespace ap
{

/** Segment-register file geometry and cost knobs. */
struct RangeBackendConfig
{
    /** Segment registers per vCPU. */
    std::uint32_t segmentRegs = 16;
    /** Smallest host-contiguous run (in 4 KB pages) worth a segment
     *  register; shorter runs stay on the paging fallback. */
    std::uint64_t segmentMinPages = 8;
    /** Longest run one register may cover, and the bound on the
     *  contiguity scan a miss performs (512 pages = one 2 MB run). */
    std::uint64_t segmentMaxPages = 512;
    /** One-time cycle cost of installing a segment register (the
     *  hypervisor's register-file update path). */
    Cycles segmentFillCycles = 300;
};

/**
 * The range backend: per-vCPU segment-register files over the nested
 * paging fallback.
 */
class RangeBackend final : public TranslationBackend,
                           public CoherenceListener,
                           public stats::StatGroup
{
  public:
    /** One base+limit segment register. pages == 0 means free. */
    struct SegmentReg
    {
        ProcId asid = 0;
        /** First guest-virtual address covered (4 KB aligned). */
        Addr vaBase = 0;
        /** Length in 4 KB pages (0 = free register). */
        std::uint64_t pages = 0;
        /** Host frame backing vaBase; page i lives at hbase + i. */
        FrameId hbase = 0;
        /** LRU timestamp (monotonic probe tick). */
        std::uint64_t lastUse = 0;
    };

    RangeBackend(stats::StatGroup *parent, unsigned num_vcpus,
                 const RangeBackendConfig &cfg);

    void serviceWalk(Walker &w, unsigned vcpu,
                     const TranslationContext &ctx, Addr va,
                     bool is_write, WalkResult &r) override;

    CoherenceListener *coherenceListener() override { return this; }

    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

    /** CoherenceListener: drop segments the broadcast invalidates. */
    void onFlushPage(Addr va, ProcId asid) override;
    void onFlushRange(Addr base, Addr len, ProcId asid) override;
    void onFlushAsid(ProcId asid) override;
    void onFlushAll() override;

    unsigned numVcpus() const { return static_cast<unsigned>(files_.size()); }

    /** Visit every live segment of @p vcpu's file (residency sweep). */
    template <typename Fn>
    void
    forEachSegment(unsigned vcpu, Fn &&fn) const
    {
        for (const SegmentReg &seg : files_[vcpu])
            if (seg.pages)
                fn(seg);
    }

    /**
     * Test hook: plant a raw segment register, bypassing installation
     * and validation. The difftest uses it to prove the residency
     * sweep catches a stale segment.
     */
    void plantSegment(unsigned vcpu, const SegmentReg &seg);

    const RangeBackendConfig &config() const { return cfg_; }

    std::uint64_t
    hitCount() const
    { return static_cast<std::uint64_t>(segment_hits_.value()); }

    std::uint64_t
    spillCount() const
    { return static_cast<std::uint64_t>(segment_spills_.value()); }

    std::uint64_t
    invalidationCount() const
    { return static_cast<std::uint64_t>(segment_invalidations_.value()); }

  private:
    using File = std::vector<SegmentReg>;

    /** @return the live register of @p file covering (asid, va), or
     *  nullptr. */
    SegmentReg *find(File &file, ProcId asid, Addr va);

    /** Scan around @p va for host-contiguous backing and install a
     *  segment when the run is long enough. */
    void maybeInstall(Walker &w, File &file,
                      const TranslationContext &ctx, Addr va,
                      WalkResult &r);

    /** Drop every live segment matching @p pred (counted as
     *  invalidations when @p count_invalidation). */
    template <typename Pred>
    void dropSegments(Pred &&pred, bool count_invalidation);

    RangeBackendConfig cfg_;
    std::vector<File> files_;
    std::uint64_t lru_tick_ = 0;

    stats::Scalar segment_hits_;
    stats::Scalar segment_fills_;
    stats::Scalar segment_spills_;
    stats::Scalar segment_invalidations_;
};

} // namespace ap

#endif // AGILEPAGING_CORE_RANGE_BACKEND_HH
