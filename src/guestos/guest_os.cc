/**
 * @file
 * Guest OS implementation.
 */

#include "guestos/guest_os.hh"

#include <algorithm>
#include <map>
#include <vector>

#include "base/bitfield.hh"
#include "base/logging.hh"
#include "vmm/guest_pt_space.hh"
#include "walker/backend.hh"

namespace ap
{

namespace
{
/** Mix (fileId, page offset) into a stable nonzero content id. */
std::uint64_t
fileContent(std::uint64_t file_id, std::uint64_t page_offset)
{
    std::uint64_t z = file_id * 0x9e3779b97f4a7c15ULL + page_offset;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z | 1; // never zero
}
} // namespace

GuestOs::GuestOs(stats::StatGroup *parent, PhysMem &host_mem, Vmm *vmm,
                 ShadowMgr *smgr, CoherenceDomain *coh,
                 const GuestOsConfig &cfg)
    : stats::StatGroup("guestos", parent),
      pageFaults(this, "page_faults", "guest page faults serviced"),
      cowBreaks(this, "cow_breaks", "guest COW copies"),
      demandPages(this, "demand_pages", "pages faulted in"),
      thpMappings(this, "thp_mappings", "2M mappings installed"),
      evictions(this, "evictions", "pages evicted under pressure"),
      forks(this, "forks", "processes forked"),
      host_mem_(host_mem),
      vmm_(vmm),
      smgr_(smgr),
      coh_(coh),
      cfg_(cfg)
{
}

GuestOs::~GuestOs()
{
    // Tear processes down explicitly so shadow-manager hooks still see
    // registered processes while their tables die.
    std::vector<ProcId> pids;
    for (auto &[pid, p] : procs_) {
        if (p->alive)
            pids.push_back(pid);
    }
    for (ProcId pid : pids)
        reapProcess(pid);
}

ProcId
GuestOs::createProcess(VirtMode mode)
{
    ap_assert((mode == VirtMode::Native) == isNative(),
              "mode/VMM mismatch: native processes need a native OS");
    ProcId pid = next_pid_++;
    auto p = std::make_unique<GuestProcess>();
    p->pid = pid;
    p->mode = mode;

    if (isNative()) {
        p->ptSpace =
            std::make_unique<HostPtSpace>(host_mem_, TableOwner::NativePt);
        p->pt = std::make_unique<RadixPageTable>(*p->ptSpace, "nPT");
        p->ctx.mode = VirtMode::Native;
        p->ctx.asid = pid;
        p->ctx.nativeRoot = p->pt->root();
    } else {
        auto space = std::make_unique<GuestPtSpace>(*vmm_);
        GuestPtSpace *space_raw = space.get();
        p->ptSpace = std::move(space);
        p->pt = std::make_unique<RadixPageTable>(*p->ptSpace, "gPT");
        space_raw->onFree = [this, pid](FrameId gframe) {
            if (smgr_ && smgr_->hasProcess(pid))
                smgr_->onGptPageFree(pid, gframe);
        };
        p->ctx.mode = mode;
        p->ctx.asid = pid;
        p->ctx.gptRoot = p->pt->root();
        p->ctx.gptRootBacking = vmm_->ensurePtBacked(p->pt->root());
        p->ctx.hptRoot = vmm_->hostPtRoot();
        if (backendTraits(mode).usesShadowMgr) {
            ap_assert(smgr_, "shadow modes need a shadow manager");
            smgr_->registerProcess(pid, p->pt.get(), p->pt->root(),
                                   mode == VirtMode::Agile);
            TranslationContext &sctx = smgr_->context(pid);
            sctx.mode = mode;
        }
    }
    procs_[pid] = std::move(p);
    return pid;
}

void
GuestOs::exitProcess(ProcId pid)
{
    GuestProcess &p = process(pid);
    ap_assert(p.alive, "double exit");
    // Release data pages.
    std::vector<std::pair<Addr, Addr>> regions;
    p.as.forEach([&](const Vma &vma) {
        regions.emplace_back(vma.base, vma.length);
    });
    for (auto [base, len] : regions)
        munmap(pid, base, len);
    // Destroy the page table while shadow hooks are still wired.
    p.pt.reset();
    if (smgr_ && smgr_->hasProcess(pid))
        smgr_->unregisterProcess(pid);
    if (coh_)
        coh_->flushAsid(pid, CoherenceCause::Exit);
    p.alive = false;
}

void
GuestOs::reapProcess(ProcId pid)
{
    GuestProcess &p = process(pid);
    ap_assert(p.alive, "double exit");
    // One DFS over the table's terminals frees exactly the frames the
    // per-page munmap walk would (in the same ascending-VA order), but
    // without per-page lookups, PTE invalidations, leaf-table pruning
    // scans, or shadow notifications — the whole-table destruction and
    // the ASID flushes below subsume those.
    if (p.pt) {
        p.pt->forEachTerminal(
            [&](Addr, const Pte &pte, unsigned depth) {
                if (pte.switching)
                    return; // table pointer, not a mapping
                std::uint64_t frames = std::uint64_t{1}
                                       << (kLevelBits *
                                           (kPtLevels - 1 - depth));
                refDecAndMaybeFree(pte.pfn, frames);
            });
        p.pt.reset();
    }
    p.as.clear();
    if (smgr_ && smgr_->hasProcess(pid))
        smgr_->unregisterProcess(pid);
    if (coh_)
        coh_->flushAsidUncharged(pid);
    p.alive = false;
}

GuestProcess &
GuestOs::process(ProcId pid)
{
    auto it = procs_.find(pid);
    ap_assert(it != procs_.end(), "unknown pid ", pid);
    return *it->second;
}

void
GuestOs::saveState(Serializer &s) const
{
    s.putMarker(0x20534f47); // "GOS "
    s.putU32(next_pid_);
    s.putU64(anon_content_seq_);
    s.putU64(guest_cycles_);
    // frame_refs_ is lookup-only, so it may stay unordered in memory,
    // but its on-disk order must not depend on hashing.
    std::map<FrameId, std::uint32_t> refs(frame_refs_.begin(),
                                          frame_refs_.end());
    s.putU64(refs.size());
    for (const auto &[frame, count] : refs) {
        s.putU64(frame);
        s.putU32(count);
    }
    // Ascending pid order: replaying the original insert sequence
    // reproduces procs_'s iteration order (livePids) exactly.
    std::map<ProcId, const GuestProcess *> sorted;
    for (const auto &[pid, p] : procs_)
        sorted.emplace(pid, p.get());
    s.putU64(sorted.size());
    for (const auto &[pid, p] : sorted) {
        s.putU32(pid);
        s.putBool(p->alive);
        s.putU8(static_cast<std::uint8_t>(p->mode));
        s.putU64(p->clockHand);
        s.putRaw(&p->ctx, sizeof(p->ctx));
        p->as.saveState(s);
        s.putBool(p->pt != nullptr);
        if (p->pt) {
            s.putU64(p->pt->root());
            s.putU64(p->pt->pageCount());
        }
    }
}

void
GuestOs::restoreState(Deserializer &d)
{
    d.checkMarker(0x20534f47);
    procs_.clear();
    next_pid_ = d.getU32();
    anon_content_seq_ = d.getU64();
    guest_cycles_ = d.getU64();
    frame_refs_.clear();
    std::uint64_t nrefs = d.getU64();
    for (std::uint64_t i = 0; i < nrefs && d.ok(); ++i) {
        FrameId frame = d.getU64();
        frame_refs_[frame] = d.getU32();
    }
    std::uint64_t nprocs = d.getU64();
    for (std::uint64_t i = 0; i < nprocs && d.ok(); ++i) {
        ProcId pid = d.getU32();
        auto p = std::make_unique<GuestProcess>();
        p->pid = pid;
        p->alive = d.getBool();
        p->mode = static_cast<VirtMode>(d.getU8());
        p->clockHand = d.getU64();
        d.getRaw(&p->ctx, sizeof(p->ctx));
        p->as.restoreState(d);
        bool has_pt = d.getBool();
        if (has_pt) {
            FrameId root = d.getU64();
            std::uint64_t pages = d.getU64();
            if (isNative()) {
                p->ptSpace = std::make_unique<HostPtSpace>(
                    host_mem_, TableOwner::NativePt);
                p->pt = std::make_unique<RadixPageTable>(
                    *p->ptSpace, "nPT", RadixPageTable::ForRestore{});
            } else {
                auto space = std::make_unique<GuestPtSpace>(*vmm_);
                space->onFree = [this, pid](FrameId gframe) {
                    if (smgr_ && smgr_->hasProcess(pid))
                        smgr_->onGptPageFree(pid, gframe);
                };
                p->ptSpace = std::move(space);
                p->pt = std::make_unique<RadixPageTable>(
                    *p->ptSpace, "gPT", RadixPageTable::ForRestore{});
            }
            p->pt->restoreState(root, pages);
        }
        procs_[pid] = std::move(p);
    }
}

bool
GuestOs::hasProcess(ProcId pid) const
{
    auto it = procs_.find(pid);
    return it != procs_.end() && it->second->alive;
}

TranslationContext &
GuestOs::context(ProcId pid)
{
    GuestProcess &p = process(pid);
    if (smgr_ && smgr_->hasProcess(pid))
        return smgr_->context(pid);
    return p.ctx;
}

void
GuestOs::notifyPtWrite(GuestProcess &p, Addr va, unsigned depth,
                       bool ad_only)
{
    if (isNative())
        return;
    if (onAnyGptWrite)
        onAnyGptWrite(p.pid, va, depth);
    if (!smgr_ || !smgr_->hasProcess(p.pid))
        return;
    GptWriteOutcome out = smgr_->onGptWrite(p.pid, va, depth, ad_only);
    if (out.trapped && onMediatedGptWrite)
        onMediatedGptWrite(p.pid, va, depth, out);
}

void
GuestOs::shootdown(GuestProcess &p, Addr base, Addr len,
                   CoherenceCause cause)
{
    if (coh_)
        coh_->flushRange(base, len, p.pid, cause);
    if (smgr_ && smgr_->hasProcess(p.pid)) {
        if (len <= kLargePageBytes) {
            // INVLPG-style targeted invalidation: only the affected
            // unsynced PT page resyncs (KVM's invlpg path).
            smgr_->onGuestInvlpgRange(p.pid, base, len);
        } else {
            smgr_->onGuestTlbFlush(p.pid, false);
        }
    }
}

FrameId
GuestOs::allocData(std::uint64_t frames)
{
    if (isNative()) {
        return frames == 1 ? host_mem_.allocData(0)
                           : host_mem_.allocDataContiguous(frames);
    }
    return frames == 1 ? vmm_->allocGuestDataFrame()
                       : vmm_->allocGuestDataFrames(frames);
}

void
GuestOs::setPageContent(const Vma &vma, Addr va, FrameId frame_base,
                        std::uint64_t frames)
{
    auto set = [&](FrameId frame, std::uint64_t content) {
        if (isNative()) {
            if (host_mem_.kind(frame) == FrameKind::Data)
                host_mem_.setContentId(frame, content);
        } else {
            vmm_->setContent(frame, content);
        }
    };
    if (vma.kind == VmaKind::File) {
        std::uint64_t first = (pageBase(va) - vma.base) / kPageBytes;
        for (std::uint64_t i = 0; i < frames; ++i)
            set(frame_base + i, fileContent(vma.fileId, first + i));
    } else {
        // Anonymous pages get unique (non-dedupable) content.
        set(frame_base, (anon_content_seq_++ << 1) |
                            (std::uint64_t{1} << 62));
    }
}

void
GuestOs::refInc(FrameId base)
{
    auto [it, fresh] = frame_refs_.try_emplace(base, 1u);
    ++it->second;
}

bool
GuestOs::refDecAndMaybeFree(FrameId base, std::uint64_t frames)
{
    auto it = frame_refs_.find(base);
    if (it != frame_refs_.end()) {
        if (--it->second > 0)
            return false;
        frame_refs_.erase(it);
    }
    for (std::uint64_t i = 0; i < frames; ++i) {
        if (isNative()) {
            host_mem_.free(base + i);
        } else {
            vmm_->freeGuestDataFrame(base + i);
        }
    }
    return true;
}

Addr
GuestOs::mmap(ProcId pid, Addr length, bool writable, VmaKind kind,
              std::uint64_t file_id)
{
    GuestProcess &p = process(pid);
    guest_cycles_ += cfg_.syscallCost;
    // Huge-page alignment only pays off for mappings that can hold
    // one; small mappings pack normally (as Linux does).
    Addr align = (cfg_.pageSize != PageSize::Size4K &&
                  length >= pageBytes(cfg_.pageSize))
                     ? pageBytes(cfg_.pageSize)
                     : kPageBytes;
    length = (length + kPageBytes - 1) & ~(kPageBytes - 1);
    return p.as.addAnywhere(length, align, writable, kind, file_id);
}

bool
GuestOs::mmapFixed(ProcId pid, Addr base, Addr length, bool writable,
                   VmaKind kind, std::uint64_t file_id)
{
    GuestProcess &p = process(pid);
    guest_cycles_ += cfg_.syscallCost;
    length = (length + kPageBytes - 1) & ~(kPageBytes - 1);
    Vma vma;
    vma.base = base;
    vma.length = length;
    vma.writable = writable;
    vma.kind = kind;
    vma.fileId = file_id;
    return p.as.add(vma);
}

void
GuestOs::munmap(ProcId pid, Addr base, Addr length)
{
    GuestProcess &p = process(pid);
    guest_cycles_ += cfg_.syscallCost;
    Addr end = base + length;

    // The shootdown must cover every translation actually torn down,
    // not just [base, base+length): a large mapping straddling either
    // boundary is evicted whole, and finer-granule (4K) TLB/PWC
    // entries under it would otherwise survive outside the requested
    // window as stale translations.
    Addr flush_base = base;
    Addr flush_end = end;

    for (Addr va = base; va < end;) {
        auto m = p.pt->lookup(va);
        if (!m) {
            va += kPageBytes;
            continue;
        }
        Addr span = pageBytes(m->size);
        Addr map_base = regionBase(va, m->depth);
        // Partial unmap of a large page: evict the whole mapping (the
        // kernel would split; the fault path repopulates the rest).
        p.pt->unmap(map_base);
        notifyPtWrite(p, map_base, m->depth);
        freeMapping(map_base, *m);
        guest_cycles_ += cfg_.perPageCost;
        flush_base = std::min(flush_base, map_base);
        flush_end = std::max(flush_end, map_base + span);
        va = map_base + span;
    }

    // Prune leaf PT pages for fully unmapped 2 MB regions so PT-page
    // churn does not leak guest PT frames.
    Addr first_region = regionBase(base, kPtLevels - 2);
    for (Addr r = first_region; r < end; r += kLargePageBytes) {
        if (r < base && base - r > 0 && p.as.find(r))
            continue; // region partially still mapped below base
        const Pte *e = p.pt->entry(r, kPtLevels - 2);
        if (!e || !e->valid || endsWalk(kPtLevels - 2, e->pageSize))
            continue;
        // Check the leaf table is empty before pruning.
        bool empty = true;
        for (Addr va = r; va < r + kLargePageBytes; va += kPageBytes) {
            if (p.pt->lookup(va)) {
                empty = false;
                break;
            }
        }
        if (empty) {
            p.pt->invalidateEntry(r, kPtLevels - 2);
            notifyPtWrite(p, r, kPtLevels - 2);
            // Partial translations through the pruned leaf table cover
            // its whole 2 MB region.
            flush_base = std::min(flush_base, r);
            flush_end = std::max(flush_end, r + kLargePageBytes);
        }
    }

    p.as.remove(base, length);
    shootdown(p, flush_base, flush_end - flush_base,
              CoherenceCause::Munmap);
}

void
GuestOs::freeMapping(Addr va, const PtMapping &m)
{
    (void)va;
    std::uint64_t frames = pageBytes(m.size) / kPageBytes;
    refDecAndMaybeFree(m.pfn, frames);
}

bool
GuestOs::demandPage(GuestProcess &p, const Vma &vma, Addr va,
                    bool is_write)
{
    // Try a 2 MB (THP) mapping when configured and the whole aligned
    // region lies inside one VMA.
    if (cfg_.pageSize != PageSize::Size4K) {
        Addr region = pageBase(va, cfg_.pageSize);
        std::uint64_t frames = pageBytes(cfg_.pageSize) / kPageBytes;
        if (vma.contains(region) &&
            vma.contains(region + pageBytes(cfg_.pageSize) - 1)) {
            FrameId base = allocData(frames);
            if (base != 0) {
                Pte *pte = p.pt->map(region, base, cfg_.pageSize,
                                     vma.writable);
                if (!pte) {
                    refDecAndMaybeFree(base, frames);
                    return false;
                }
                // The kernel installs the PTE accessed (and dirty for a
                // write fault), so shadow fills can grant write access
                // immediately.
                pte->accessed = true;
                pte->dirty = is_write && vma.writable;
                setPageContent(vma, region, base, frames);
                notifyPtWrite(p, region, leafDepth(cfg_.pageSize));
                ++thpMappings;
                ++demandPages;
                return true;
            }
            // Fall through to a 4 KB mapping on fragmentation.
        }
    }
    FrameId frame = allocData(1);
    if (frame == 0)
        return false;
    Pte *pte =
        p.pt->map(pageBase(va), frame, PageSize::Size4K, vma.writable);
    if (!pte) {
        refDecAndMaybeFree(frame, 1);
        return false;
    }
    pte->accessed = true;
    pte->dirty = is_write && vma.writable;
    setPageContent(vma, pageBase(va), frame, 1);
    notifyPtWrite(p, pageBase(va), kPtLevels - 1);
    ++demandPages;
    return true;
}

bool
GuestOs::handlePageFault(ProcId pid, Addr va, bool is_write)
{
    GuestProcess &p = process(pid);
    const Vma *vma = p.as.find(va);
    if (!vma)
        return false;
    ++pageFaults;
    guest_cycles_ += cfg_.pageFaultCost;

    auto m = p.pt->lookup(va);
    if (!m)
        return demandPage(p, *vma, va, is_write);
    if (is_write && !m->pte.writable && vma->writable)
        return handleCowWrite(pid, va);
    // Spurious (e.g. raced with another fixup): nothing to do.
    return true;
}

bool
GuestOs::handleCowWrite(ProcId pid, Addr va)
{
    GuestProcess &p = process(pid);
    const Vma *vma = p.as.find(va);
    if (!vma || !vma->writable)
        return false;
    auto m = p.pt->lookup(va);
    if (!m)
        return false;
    if (m->pte.writable)
        return true; // already broken by the other side

    std::uint64_t frames = pageBytes(m->size) / kPageBytes;
    Addr map_base = regionBase(va, m->depth);
    ++cowBreaks;
    guest_cycles_ += cfg_.cowCopyCost * frames;

    auto ref_it = frame_refs_.find(m->pfn);
    bool shared = ref_it != frame_refs_.end() && ref_it->second > 1;
    if (!shared) {
        // Sole owner: just restore write permission in place.
        Pte *pte = p.pt->entry(map_base, m->depth);
        pte->writable = true;
        notifyPtWrite(p, map_base, m->depth);
        shootdown(p, map_base, pageBytes(m->size),
                  CoherenceCause::Cow);
        return true;
    }

    FrameId fresh = allocData(frames);
    if (fresh == 0)
        return false;
    // Copy content ids (private copies are distinct pages again; keep
    // file identity so future dedup can re-merge).
    for (std::uint64_t i = 0; i < frames; ++i) {
        std::uint64_t content = 0;
        if (isNative()) {
            content = host_mem_.contentId(m->pfn + i);
            host_mem_.setContentId(fresh + i, content);
        } else if (FrameId h = vmm_->backing(m->pfn + i)) {
            content = host_mem_.contentId(h);
            vmm_->setContent(fresh + i, content);
        }
    }
    refDecAndMaybeFree(m->pfn, frames);
    p.pt->map(map_base, fresh, m->size, true);
    notifyPtWrite(p, map_base, m->depth);
    shootdown(p, map_base, pageBytes(m->size), CoherenceCause::Cow);
    return true;
}

ProcId
GuestOs::fork(ProcId parent_pid)
{
    GuestProcess &parent = process(parent_pid);
    ProcId child_pid = createProcess(parent.mode);
    GuestProcess &child = process(child_pid);
    ++forks;
    guest_cycles_ += cfg_.syscallCost;

    parent.as.forEach([&](const Vma &vma) {
        bool ok = child.as.add(vma);
        ap_assert(ok, "fork: child VMA collision");
    });

    // Share every present mapping copy-on-write.
    struct Item
    {
        Addr va;
        Pte pte;
        unsigned depth;
    };
    std::vector<Item> items;
    parent.pt->forEachTerminal([&](Addr va, const Pte &pte, unsigned d) {
        items.push_back(Item{va, pte, d});
    });
    for (const Item &it : items) {
        guest_cycles_ += cfg_.perPageCost;
        if (it.pte.writable) {
            Pte *ppte = parent.pt->entry(it.va, it.depth);
            ppte->writable = false;
            notifyPtWrite(parent, it.va, it.depth);
        }
        if (!child.pt->map(it.va, it.pte.pfn, sizeAtDepth(it.depth),
                           false)) {
            exitProcess(child_pid);
            return 0;
        }
        notifyPtWrite(child, it.va, it.depth);
        refInc(it.pte.pfn);
    }

    // The parent's mappings changed permission: full flush, and every
    // vCPU the parent may have run on must drop its cached writable
    // translations before the child can observe the shared frames.
    if (coh_)
        coh_->flushAsid(parent_pid, CoherenceCause::Fork);
    if (smgr_ && smgr_->hasProcess(parent_pid))
        smgr_->onGuestTlbFlush(parent_pid, true);
    return child_pid;
}

std::uint64_t
GuestOs::reclaimScan(ProcId pid, std::uint64_t max_pages)
{
    GuestProcess &p = process(pid);
    struct Item
    {
        Addr va;
        unsigned depth;
        bool accessed;
    };
    bool is_shadowed = smgr_ && smgr_->hasProcess(pid);
    // Rotating clock hand: collect mapped pages after the hand,
    // wrapping once, until the scan budget (in 4 KB pages — a 2 MB
    // mapping costs 512 budget units) is spent. Each side of the hand
    // has its own budget and its own walk, which stops once that
    // budget is spent. The side below the hand is walked first, so
    // shadow accessed bits are consumed in ascending VA order.
    std::vector<Item> items;
    std::vector<Item> before_hand;
    std::uint64_t budget_after = 0, budget_before = 0;
    auto take = [&](std::vector<Item> &bucket, std::uint64_t &budget,
                    Addr va, const Pte &pte, unsigned d) {
        if (budget >= max_pages)
            return false;
        if (pte.switching)
            return true;
        budget += spanAtDepth(d) / kPageBytes; // 1 for 4K, 512 for 2M
        // Under shadow paging the hardware records references in
        // the shadow table; the VMM surfaces them to the guest.
        bool accessed = pte.accessed;
        if (!accessed && is_shadowed)
            accessed = smgr_->consumeShadowAccessed(pid, va);
        bucket.push_back(Item{va, d, accessed});
        return true;
    };
    p.pt->forEachTerminal([&](Addr va, const Pte &pte, unsigned d) {
        return va < p.clockHand &&
               take(before_hand, budget_before, va, pte, d);
    });
    p.pt->forEachTerminal(
        [&](Addr va, const Pte &pte, unsigned d) {
            return take(items, budget_after, va, pte, d);
        },
        p.clockHand);
    for (const Item &it : before_hand) {
        if (budget_after >= max_pages)
            break;
        budget_after += spanAtDepth(it.depth) / kPageBytes;
        items.push_back(it);
    }
    p.clockHand = items.empty() ? 0 : items.back().va + kPageBytes;

    std::uint64_t evicted = 0;
    for (const Item &it : items) {
        guest_cycles_ += cfg_.perPageCost;
        if (it.accessed) {
            // Clear the reference bit — a PT write the VMM mediates in
            // shadow mode (the Section V memory-pressure scenario).
            Pte *pte = p.pt->entry(it.va, it.depth);
            if (pte && pte->valid) {
                pte->accessed = false;
                notifyPtWrite(p, it.va, it.depth, /*ad_only=*/true);
            }
        } else {
            auto m = p.pt->lookup(it.va);
            if (!m)
                continue;
            p.pt->unmap(it.va);
            notifyPtWrite(p, it.va, it.depth);
            freeMapping(it.va, *m);
            ++evicted;
        }
    }
    if (!items.empty())
        shootdown(p, 0, Addr{1} << 47, CoherenceCause::Reclaim);
    evictions += evicted;
    return evicted;
}

std::vector<ProcId>
GuestOs::livePids() const
{
    std::vector<ProcId> pids;
    for (const auto &[pid, p] : procs_) {
        if (p->alive)
            pids.push_back(pid);
    }
    return pids;
}

Addr
GuestOs::randomMappedVa(ProcId pid, Rng &rng)
{
    GuestProcess &p = process(pid);
    Addr total = p.as.mappedBytes();
    if (total == 0)
        return 0;
    Addr target = rng.nextBelow(total);
    Addr result = 0;
    p.as.forEach([&](const Vma &vma) {
        if (result)
            return;
        if (target < vma.length) {
            result = vma.base + pageBase(target);
        } else {
            target -= vma.length;
        }
    });
    return result;
}

bool
GuestOs::guestMappingWritable(ProcId pid, Addr va)
{
    GuestProcess &p = process(pid);
    auto m = p.pt->lookup(va);
    return m && m->pte.writable;
}

bool
GuestOs::vmaWritable(ProcId pid, Addr va)
{
    GuestProcess &p = process(pid);
    const Vma *vma = p.as.find(va);
    return vma && vma->writable;
}

FrameId
GuestOs::leafFrame(ProcId pid, Addr va)
{
    GuestProcess &p = process(pid);
    auto m = p.pt->lookup(va);
    if (!m)
        return 0;
    std::uint64_t frames = pageBytes(m->size) / kPageBytes;
    return m->pfn + (frameOf(va) % frames);
}

} // namespace ap
