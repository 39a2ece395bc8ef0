/**
 * @file
 * VMM implementation.
 */

#include "vmm/vmm.hh"

#include <unordered_map>

#include "base/bitfield.hh"
#include "base/logging.hh"

namespace ap
{

namespace
{
constexpr std::uint64_t kFramesPer2M = kLargePageBytes / kPageBytes;
} // namespace

Vmm::Vmm(stats::StatGroup *parent, PhysMem &mem, const VmmConfig &cfg,
         NestedTlb *ntlb)
    : stats::StatGroup("vmm", parent),
      trapsTotal(this, "traps", "VM exits taken"),
      trapCyclesStat(this, "trap_cycles", "cycles spent in VM exits"),
      hostFaultsServed(this, "host_faults", "EPT violations served"),
      pagesShared(this, "pages_shared", "host frames reclaimed by dedup"),
      cowBreaks(this, "cow_breaks", "host COW faults broken"),
      trapEntriesDist(this, "trap_entries", "PTEs touched per VM exit",
                      0, 1024, 32),
      mem_(mem),
      cfg_(cfg),
      ntlb_(ntlb),
      pt_cap_(cfg.guestPtFrames),
      // Data region starts at the next 2 MB boundary past the PT
      // region, so 2 MB guest and host pages stay alignable.
      data_base_((cfg.guestPtFrames + kFramesPer2M) / kFramesPer2M *
                 kFramesPer2M),
      pt_alloc_(cfg.guestPtFrames),
      data_alloc_(cfg.guestDataFrames)
{
    trapCountByCause.reserve(kNumTrapKinds);
    trapCyclesByCause.reserve(kNumTrapKinds);
    for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
        std::string kind = trapKindName(static_cast<TrapKind>(k));
        trapCountByCause.push_back(std::make_unique<stats::Scalar>(
            this, "trap_" + kind, "VM exits caused by " + kind));
        trapCyclesByCause.push_back(std::make_unique<stats::Scalar>(
            this, "trap_" + kind + "_cycles",
            "cycles in VM exits caused by " + kind));
    }
    hpt_space_ = std::make_unique<HostPtSpace>(mem_, TableOwner::HostPt);
    hpt_ = std::make_unique<RadixPageTable>(*hpt_space_, "hPT");
    if (cfg.sptrCacheEntries > 0) {
        sptr_cache_ =
            std::make_unique<SptrCache>(this, cfg.sptrCacheEntries);
    }
}

Vmm::~Vmm() = default;

Vmm::Backing &
Vmm::backingSlot(FrameId gframe)
{
    ap_assert(gframe > 0 && gframe < backingLimit(),
              "guest frame out of range: ", gframe);
    if (gframe >= backings_.size())
        backings_.resize(gframe + 1); // geometric: amortised O(1)
    return backings_[gframe];
}

const Vmm::Backing *
Vmm::backingSlotIfAny(FrameId gframe) const
{
    if (gframe == 0 || gframe >= backings_.size())
        return nullptr;
    return &backings_[gframe];
}

FrameId
Vmm::allocGuestPtFrame()
{
    FrameId gframe = pt_alloc_.alloc();
    if (!gframe)
        return 0;
    if (ensurePtBacked(gframe) == PhysMem::kNoFrame) {
        pt_alloc_.free(gframe);
        return 0;
    }
    return gframe;
}

FrameId
Vmm::backPtSlow(FrameId gframe)
{
    Backing &b = backingSlot(gframe);
    FrameId hframe = mem_.allocTable(TableOwner::GuestPt);
    if (hframe == PhysMem::kNoFrame)
        return PhysMem::kNoFrame;
    b.hframe = hframe;
    b.dirty = false;
    // PT-region frames always get 4 KB host mappings.
    hpt_->map(frameAddr(gframe), hframe, PageSize::Size4K, true);
    return hframe;
}

void
Vmm::freeGuestPtFrame(FrameId gframe)
{
    ap_assert(isPtRegion(gframe), "not a PT-region frame");
    Backing &b = backingSlot(gframe);
    if (b.hframe) {
        hpt_->unmap(frameAddr(gframe));
        if (ntlb_)
            ntlb_->flushFrame(gframe);
        mem_.free(b.hframe);
        b = Backing{};
    }
    pt_alloc_.free(gframe);
}

FrameId
Vmm::allocGuestDataFrame()
{
    FrameId id = data_alloc_.alloc();
    return id ? data_base_ + id : 0;
}

FrameId
Vmm::allocGuestDataFrames(std::uint64_t n)
{
    FrameId id = data_alloc_.allocContiguous(n);
    // data_base_ is n-aligned for any power-of-two n up to 2 MB groups,
    // and allocContiguous aligns ids, so gframes stay aligned.
    return id ? data_base_ + id : 0;
}

void
Vmm::freeGuestDataFrame(FrameId gframe)
{
    ap_assert(gframe > data_base_, "not a data frame");
    Backing &b = backingSlot(gframe);
    if (b.hframe) {
        if (cfg_.hostPageSize == PageSize::Size4K) {
            hpt_->unmap(frameAddr(gframe));
            if (!b.shared)
                mem_.free(b.hframe);
            --backed_data_;
            b = Backing{};
        } else {
            // 2 MB host mappings keep the whole group backed; the
            // backing is reused when the guest frame is reallocated.
            b.dirty = false;
        }
        if (ntlb_)
            ntlb_->flushFrame(gframe);
    }
    data_alloc_.free(gframe - data_base_);
}

FrameId
Vmm::backing(FrameId gframe) const
{
    const Backing *b = backingSlotIfAny(gframe);
    return b ? b->hframe : 0;
}

bool
Vmm::backDataFrame(FrameId gframe)
{
    if (cfg_.hostPageSize != PageSize::Size4K) {
        // Back the whole naturally aligned 2 MB group at once. Grow
        // the table over the group first, so no slot moves under the
        // references the loop below takes.
        const std::uint64_t group_frames = kFramesPer2M;
        FrameId group = gframe & ~(group_frames - 1);
        backingSlot(group + group_frames - 1);
        if (backings_[gframe].hframe)
            return true;
        FrameId hbase = mem_.allocDataContiguous(group_frames);
        if (hbase == PhysMem::kNoFrame)
            return false;
        for (std::uint64_t i = 0; i < group_frames; ++i) {
            Backing &gb = backingSlot(group + i);
            ap_assert(!gb.hframe, "partially backed large group");
            gb.hframe = hbase + i;
            if (gb.pendingContent) {
                mem_.setContentId(gb.hframe, gb.pendingContent);
                gb.pendingContent = 0;
            }
        }
        hpt_->map(frameAddr(group), hbase, cfg_.hostPageSize, true);
        backed_data_ += group_frames;
        return true;
    }
    Backing &b = backingSlot(gframe);
    if (b.hframe)
        return true;
    FrameId hframe = mem_.allocData(b.pendingContent);
    if (hframe == PhysMem::kNoFrame)
        return false;
    b.hframe = hframe;
    b.pendingContent = 0;
    hpt_->map(frameAddr(gframe), hframe, PageSize::Size4K, true);
    ++backed_data_;
    return true;
}

FrameId
Vmm::ensureDataBacked(FrameId gframe)
{
    // No reference is held across backDataFrame: backing a large
    // group can grow (and move) the table.
    if (!backDataFrame(gframe))
        return PhysMem::kNoFrame;
    return backings_[gframe].hframe;
}

bool
Vmm::handleHostFault(Addr gpa)
{
    FrameId gframe = frameOf(gpa);
    chargeTrap(TrapKind::HostFault);
    ++hostFaultsServed;
    if (isPtRegion(gframe))
        return ensurePtBacked(gframe) != PhysMem::kNoFrame;
    return backDataFrame(gframe);
}

void
Vmm::markGptWriteDirty(FrameId gframe)
{
    Backing &b = backingSlot(gframe);
    b.dirty = true;
    // Mirror into the architectural hPT leaf dirty bit.
    if (Pte *pte = hpt_->entry(frameAddr(gframe), kPtLevels - 1)) {
        if (pte->valid)
            pte->dirty = true;
    }
}

bool
Vmm::consumeGptDirty(FrameId gframe)
{
    Backing &b = backingSlot(gframe);
    bool was = b.dirty;
    b.dirty = false;
    if (Pte *pte = hpt_->entry(frameAddr(gframe), kPtLevels - 1)) {
        if (pte->valid)
            pte->dirty = false;
    }
    return was;
}

void
Vmm::setContent(FrameId gframe, std::uint64_t content_id)
{
    Backing &b = backingSlot(gframe);
    if (!b.hframe) {
        // Not yet backed: remember the content and apply it when the
        // first hardware touch takes the EPT fault — backing eagerly
        // here would hide host faults from nested mode.
        b.pendingContent = content_id;
        return;
    }
    if (!b.shared)
        mem_.setContentId(b.hframe, content_id);
}

std::uint64_t
Vmm::sharePages(std::vector<FrameId> *remapped_gframes)
{
    if (cfg_.hostPageSize != PageSize::Size4K)
        return 0; // dedup of 2 MB backings is not modelled
    std::unordered_map<std::uint64_t, FrameId> content_to_gframe;
    std::uint64_t reclaimed = 0;
    for (FrameId gframe = data_base_ + 1; gframe < backings_.size();
         ++gframe) {
        Backing &b = backings_[gframe];
        if (!b.hframe)
            continue;
        std::uint64_t content = b.shared ? 0 : mem_.contentId(b.hframe);
        if (content == 0)
            continue; // unhashable/unique content
        auto [it, fresh] = content_to_gframe.try_emplace(content, gframe);
        if (fresh) {
            continue;
        }
        // Collapse this frame onto the canonical copy, read-only both.
        Backing &canon = backings_[it->second];
        if (!canon.shared) {
            canon.shared = true;
            if (Pte *pte =
                    hpt_->entry(frameAddr(it->second), kPtLevels - 1)) {
                pte->writable = false;
            }
            // The kept copy's write permission changed too: a stale
            // writable nested-TLB or shadow entry would let a guest
            // store reach the now-shared frame without breaking COW.
            if (ntlb_)
                ntlb_->flushFrame(it->second);
            if (remapped_gframes)
                remapped_gframes->push_back(it->second);
        }
        mem_.free(b.hframe);
        --backed_data_;
        b.hframe = canon.hframe;
        b.shared = true;
        hpt_->map(frameAddr(gframe), canon.hframe, PageSize::Size4K,
                  false);
        if (ntlb_)
            ntlb_->flushFrame(gframe);
        if (remapped_gframes)
            remapped_gframes->push_back(gframe);
        ++reclaimed;
    }
    // The scan itself is background VMM work, not a guest-visible
    // VM exit; guests pay only when a later write breaks COW.
    pagesShared += reclaimed;
    return reclaimed;
}

bool
Vmm::breakHostCow(FrameId gframe)
{
    Backing &b = backingSlot(gframe);
    ap_assert(b.shared, "COW break on non-shared frame");
    chargeTrap(TrapKind::HostCow);
    ++cowBreaks;
    std::uint64_t content = mem_.contentId(b.hframe);
    FrameId fresh = mem_.allocData(content);
    if (fresh == PhysMem::kNoFrame)
        return false;
    b.hframe = fresh;
    b.shared = false;
    ++backed_data_;
    hpt_->map(frameAddr(gframe), fresh, PageSize::Size4K, true);
    if (ntlb_)
        ntlb_->flushFrame(gframe);
    return true;
}

bool
Vmm::hostWritable(FrameId gframe) const
{
    const Backing *b = backingSlotIfAny(gframe);
    if (!b || !b->hframe)
        return true; // will be backed writable on fault
    return !b->shared;
}

void
Vmm::chargeTrap(TrapKind k, std::uint64_t entries)
{
    Cycles c = cfg_.costs.cost(k, entries);
    trap_cycles_ += c;
    ++trap_counts_[static_cast<std::size_t>(k)];
    ++trapsTotal;
    trapCyclesStat += static_cast<double>(c);
    ++*trapCountByCause[static_cast<std::size_t>(k)];
    *trapCyclesByCause[static_cast<std::size_t>(k)] +=
        static_cast<double>(c);
    trapEntriesDist.sample(entries);
}

std::uint64_t
Vmm::trapCount(TrapKind k) const
{
    return trap_counts_[static_cast<std::size_t>(k)];
}

std::uint64_t
Vmm::trapCountTotal() const
{
    std::uint64_t n = 0;
    for (auto c : trap_counts_)
        n += c;
    return n;
}

} // namespace ap
