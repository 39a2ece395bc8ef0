/**
 * @file
 * Shadow page-table manager implementation.
 */

#include "vmm/shadow_mgr.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/debug.hh"
#include "base/logging.hh"

namespace ap
{

namespace
{
/** Region of gVA space covered by the PT page holding entries at
 *  @p depth on the path of @p va (the whole space for the root). */
Addr
nodeBase(Addr va, unsigned depth)
{
    return depth == 0 ? 0 : regionBase(va, depth - 1);
}

Addr
nodeSpan(unsigned depth)
{
    return depth == 0 ? (spanAtDepth(0) * kPtEntries)
                      : spanAtDepth(depth - 1);
}
} // namespace

ShadowMgr::ShadowMgr(stats::StatGroup *parent, PhysMem &mem, Vmm &vmm,
                     const ShadowConfig &cfg, CoherenceDomain *coh)
    : stats::StatGroup("shadow", parent),
      fills(this, "fills", "shadow entries filled on demand"),
      syncWrites(this, "sync_writes", "mediated gPT writes synced"),
      unsyncEvents(this, "unsync_events", "leaf pages made unsynced"),
      resyncPages(this, "resync_pages", "unsynced pages resynced"),
      adEmulations(this, "ad_emulations", "dirty-bit protection traps"),
      convertsToNested(this, "to_nested", "PT pages moved to nested"),
      convertsToShadow(this, "to_shadow", "PT pages moved to shadow"),
      mem_(mem),
      vmm_(vmm),
      cfg_(cfg),
      coh_(coh)
{
}

ShadowMgr::~ShadowMgr() = default;

void
ShadowMgr::saveState(Serializer &s) const
{
    s.putMarker(0x52474d53); // "SMGR"
    s.putU64(procs_.size());
    for (const auto &[proc, p] : procs_) {
        s.putU32(proc);
        s.putU64(p.gptRootGframe);
        s.putBool(p.agile);
        static_assert(std::is_trivially_copyable_v<TranslationContext>,
                      "TranslationContext must be raw-serializable");
        s.putRaw(&p.ctx, sizeof(p.ctx));
        s.putU64(p.spt->root());
        s.putU64(p.spt->pageCount());
        static_assert(std::is_trivially_copyable_v<GptNode>,
                      "GptNode must be raw-serializable");
        s.putU64(p.nodes.size());
        for (const auto &[gframe, node] : p.nodes) {
            s.putU64(gframe);
            s.putRaw(&node, sizeof(node));
        }
        s.putPodVector(p.unsynced);
    }
}

void
ShadowMgr::restoreState(
    Deserializer &d,
    const std::function<RadixPageTable *(ProcId)> &gpt_resolver)
{
    d.checkMarker(0x52474d53);
    procs_.clear();
    std::uint64_t nprocs = d.getU64();
    for (std::uint64_t i = 0; i < nprocs && d.ok(); ++i) {
        ProcId proc = d.getU32();
        ProcState &p = procs_[proc];
        p.gpt = gpt_resolver(proc);
        p.gptRootGframe = d.getU64();
        p.agile = d.getBool();
        d.getRaw(&p.ctx, sizeof(p.ctx));
        FrameId spt_root = d.getU64();
        std::uint64_t spt_pages = d.getU64();
        // The shadow table's pages already exist in restored host
        // memory; adopt them instead of rebuilding.
        p.sptSpace =
            std::make_unique<HostPtSpace>(mem_, TableOwner::ShadowPt);
        p.spt = std::make_unique<RadixPageTable>(
            *p.sptSpace, "sPT", RadixPageTable::ForRestore{});
        p.spt->restoreState(spt_root, spt_pages);
        std::uint64_t nnodes = d.getU64();
        for (std::uint64_t j = 0; j < nnodes && d.ok(); ++j) {
            FrameId gframe = d.getU64();
            GptNode node;
            d.getRaw(&node, sizeof(node));
            p.nodes.emplace(gframe, node);
        }
        d.getPodVector(p.unsynced);
        if (!p.gpt)
            d.fail();
    }
}

void
ShadowMgr::registerProcess(ProcId proc, RadixPageTable *gpt,
                           FrameId gpt_root_gframe, bool agile)
{
    ap_assert(!hasProcess(proc), "process already shadowed");
    ProcState &p = procs_[proc];
    p.gpt = gpt;
    p.gptRootGframe = gpt_root_gframe;
    p.agile = agile;
    p.sptSpace =
        std::make_unique<HostPtSpace>(mem_, TableOwner::ShadowPt);
    p.spt = std::make_unique<RadixPageTable>(*p.sptSpace, "sPT");

    p.ctx.mode = VirtMode::Shadow;
    p.ctx.asid = proc;
    p.ctx.gptRoot = gpt_root_gframe;
    p.ctx.gptRootBacking = vmm_.ensurePtBacked(gpt_root_gframe);
    p.ctx.hptRoot = vmm_.hostPtRoot();
    p.ctx.sptRoot = p.spt->root();

    // Register and protect the root node immediately.
    p.nodes[gpt_root_gframe] = GptNode{0, 0, false, false, 0};
}

void
ShadowMgr::unregisterProcess(ProcId proc)
{
    auto it = procs_.find(proc);
    ap_assert(it != procs_.end(), "unknown process");
    if (SptrCache *sc = vmm_.sptrCache())
        sc->invalidate(it->second.gptRootGframe);
    procs_.erase(it);
}

bool
ShadowMgr::hasProcess(ProcId proc) const
{
    return procs_.count(proc) > 0;
}

TranslationContext &
ShadowMgr::context(ProcId proc)
{
    return state(proc).ctx;
}

ShadowMgr::ProcState &
ShadowMgr::state(ProcId proc)
{
    auto it = procs_.find(proc);
    ap_assert(it != procs_.end(), "unknown process ", proc);
    return it->second;
}

void
ShadowMgr::flushRegion(ProcState &p, Addr base, Addr span)
{
    if (coh_) {
        coh_->flushRange(base, span, p.ctx.asid,
                         CoherenceCause::Resync);
    }
}

bool
ShadowMgr::fillLeaf(ProcState &p, Addr va, unsigned depth, Pte &gpte)
{
    PageSize gsize = sizeAtDepth(depth);
    PageSize hsize = vmm_.config().hostPageSize;

    // The VMM sets the guest accessed bit on first reference
    // (Section III-B); the write-enable bit is withheld until the
    // first store unless the page is already dirty or hardware A/D is
    // available.
    gpte.accessed = true;

    bool host_can_match = pageBytes(hsize) >= pageBytes(gsize);
    if (host_can_match) {
        FrameId hbase = vmm_.ensureDataBacked(gpte.pfn);
        if (hbase == PhysMem::kNoFrame)
            return false;
        bool writable = gpte.writable && vmm_.hostWritable(gpte.pfn) &&
                        (gpte.dirty || cfg_.hwOptAd);
        Pte *spte = p.spt->map(regionBase(va, depth), hbase, gsize,
                               writable);
        if (!spte)
            return false;
        spte->accessed = true;
        spte->dirty = gpte.dirty;
        return true;
    }

    // Guest page larger than host granule: shadow the faulting 4 KB
    // piece only (the guest large page is broken for the TLB).
    std::uint64_t offset = frameOf(va) % (pageBytes(gsize) / kPageBytes);
    FrameId gframe = gpte.pfn + offset;
    FrameId hframe = vmm_.ensureDataBacked(gframe);
    if (hframe == PhysMem::kNoFrame)
        return false;
    bool writable = gpte.writable && vmm_.hostWritable(gframe) &&
                    (gpte.dirty || cfg_.hwOptAd);
    Pte *spte = p.spt->map(pageBase(va), hframe, PageSize::Size4K,
                           writable);
    if (!spte)
        return false;
    spte->accessed = true;
    spte->dirty = gpte.dirty;
    return true;
}

ShadowFillResult
ShadowMgr::handleShadowFault(ProcId proc, Addr va)
{
    ProcState &p = state(proc);

    FrameId gframe = p.gptRootGframe;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        auto [it, fresh] = p.nodes.try_emplace(
            gframe, GptNode{nodeBase(va, d), d, false, false, 0});
        GptNode &node = it->second;
        if (node.nested) {
            // Boundary into nested mode: (re)install the switching
            // entry in the parent shadow level.
            ap_assert(d > 0, "root nesting uses the rootSwitch flag");
            Pte *spte = p.spt->ensurePath(va, d - 1);
            ap_assert(spte, "shadow table page allocation failed");
            if (!(spte->valid && spte->switching)) {
                if (spte->valid)
                    p.spt->invalidateEntry(va, d - 1);
                spte = p.spt->ensurePath(va, d - 1);
                *spte = Pte{};
                spte->valid = true;
                spte->switching = true;
                spte->pfn = vmm_.ensurePtBacked(gframe);
            }
            vmm_.chargeTrap(TrapKind::ShadowFill);
            ++fills;
            return ShadowFillResult::Filled;
        }
        Pte *gpte = p.gpt->entry(va, d);
        if (!gpte || !gpte->valid)
            return ShadowFillResult::NeedGuestFault;
        if (endsWalk(d, gpte->pageSize)) {
            if (!fillLeaf(p, va, d, *gpte))
                ap_fatal("out of host memory during shadow fill");
            vmm_.chargeTrap(TrapKind::ShadowFill);
            ++fills;
            return ShadowFillResult::Filled;
        }
        gframe = gpte->pfn;
    }
    ap_panic("shadow fill ran off the end");
}

GptWriteOutcome
ShadowMgr::onGptWrite(ProcId proc, Addr va, unsigned depth, bool ad_only)
{
    ProcState &p = state(proc);
    GptWriteOutcome out;
    // tableFrame walks the current guest table in guest-frame space.
    FrameId gframe = depth == 0 ? p.gptRootGframe
                                : p.gpt->tableFrame(va, depth);
    if (gframe == PhysMem::kNoFrame)
        return out;
    auto it = p.nodes.find(gframe);
    if (it == p.nodes.end())
        return out; // page never shadowed: direct write
    GptNode &node = it->second;
    out.node = &node;
    out.nodeGframe = gframe;

    if (node.nested) {
        // Direct write; leaves a dirty-bit trace for the scan policy.
        vmm_.markGptWriteDirty(gframe);
        return out;
    }
    if (node.unsynced)
        return out; // already writable until the next flush

    out.trapped = true;
    ++node.intervalWrites;
    if (ad_only) {
        // A trapped reference-bit clear: the scan will rewrite the
        // whole page, so count it as a burst immediately.
        ++node.intervalWrites;
    }
    if (cfg_.unsyncEnabled && depth >= kPtLevels - 2) {
        // Unsync applies to PT pages holding leaf entries: the PTE
        // level, and the PD level when it holds 2 MB mappings.
        vmm_.chargeTrap(TrapKind::Unsync);
        ++unsyncEvents;
        node.unsynced = true;
        p.unsynced.push_back(gframe);
        out.unsynced = true;
        return out;
    }
    // Sync in place: invalidate the affected shadow entry (and its
    // subtree) and flush derived translations.
    vmm_.chargeTrap(TrapKind::ShadowPtWrite);
    ++syncWrites;
    p.spt->invalidateEntry(va, depth);
    flushRegion(p, regionBase(va, depth), spanAtDepth(depth));
    return out;
}

void
ShadowMgr::resyncLeafPage(ProcState &p, FrameId gframe, GptNode &node)
{
    ap_assert(node.depth >= kPtLevels - 2, "resync of non-leaf node");
    // Re-merge all 512 entries of the guest page in place. At the PD
    // level only terminal (2 MB) entries are synced here; pointer
    // entries are covered by their own child nodes.
    std::uint64_t changed = 0;
    Addr span = spanAtDepth(node.depth);
    PtPage &gpage = mem_.table(vmm_.ensurePtBacked(gframe));
    // The 512 entries share one shadow table page, resolved once;
    // invalidations below free only subtrees under it. No page means
    // the shadow path was never built here.
    FrameId sframe = p.spt->tableFrame(node.vaBase, node.depth);
    PtPage *spage =
        sframe == PhysMem::kNoFrame ? nullptr : &mem_.table(sframe);
    for (unsigned i = 0; spage && i < kPtEntries; ++i) {
        Addr va = node.vaBase + static_cast<Addr>(i) * span;
        Pte &gpte = gpage[i];
        bool gpte_leaf = gpte.valid && endsWalk(node.depth, gpte.pageSize);
        Pte *spte = &(*spage)[i];
        bool spte_terminal =
            spte->valid &&
            (endsWalk(node.depth, spte->pageSize) || spte->switching);
        if (!gpte.valid) {
            if (spte->valid) {
                p.spt->invalidateEntry(va, node.depth);
                ++changed;
            }
            continue;
        }
        if (!gpte_leaf) {
            // A pointer entry: any stale terminal shadow entry here
            // (e.g. a demoted huge page) must go; live pointer paths
            // are synced by the child nodes.
            if (spte_terminal && !spte->switching) {
                p.spt->invalidateEntry(va, node.depth);
                ++changed;
            }
            continue;
        }
        if (spte->valid && !spte->switching) {
            FrameId hframe = vmm_.backing(gpte.pfn);
            if (hframe == PhysMem::kNoFrame || spte->pfn != hframe ||
                spte->writable !=
                    (gpte.writable && vmm_.hostWritable(gpte.pfn) &&
                     (gpte.dirty || cfg_.hwOptAd))) {
                // Stale: drop and let the next miss refill.
                p.spt->invalidateEntry(va, node.depth);
                ++changed;
            }
        }
    }
    node.unsynced = false;
    // Modifications discovered during resync are exactly the writes
    // the unsync window hid from the VMM; surface them to the
    // write-burst policy. A single changed entry is the signature of
    // one isolated update (e.g. one COW break) and is not counted —
    // the matching unsync trap already was.
    if (changed > 1)
        ++node.intervalWrites;
    ++resyncPages;
    flushRegion(p, node.vaBase, nodeSpan(node.depth));
}

std::uint64_t
ShadowMgr::resyncAll(ProcState &p)
{
    std::uint64_t n = 0;
    for (FrameId gframe : p.unsynced) {
        auto it = p.nodes.find(gframe);
        if (it == p.nodes.end() || !it->second.unsynced)
            continue;
        resyncLeafPage(p, gframe, it->second);
        ++n;
    }
    p.unsynced.clear();
    return n;
}

void
ShadowMgr::onGuestTlbFlush(ProcId proc, bool always_trap)
{
    ProcState &p = state(proc);
    std::uint64_t pages = p.unsynced.size();
    if (pages == 0 && !always_trap)
        return;
    vmm_.chargeTrap(TrapKind::TlbFlush, pages * kPtEntries);
    resyncAll(p);
}

void
ShadowMgr::onGuestInvlpgRange(ProcId proc, Addr base, Addr len)
{
    ProcState &p = state(proc);
    std::uint64_t resynced = 0;
    for (auto it = p.unsynced.begin(); it != p.unsynced.end();) {
        auto nit = p.nodes.find(*it);
        if (nit == p.nodes.end() || !nit->second.unsynced) {
            it = p.unsynced.erase(it);
            continue;
        }
        GptNode &node = nit->second;
        Addr span = nodeSpan(node.depth);
        bool overlaps =
            node.vaBase < base + len && base < node.vaBase + span;
        if (overlaps) {
            resyncLeafPage(p, *it, node);
            ++resynced;
            it = p.unsynced.erase(it);
        } else {
            ++it;
        }
    }
    if (resynced)
        vmm_.chargeTrap(TrapKind::TlbFlush, resynced * kPtEntries);
}

bool
ShadowMgr::onCtxSwitchIn(ProcId proc)
{
    ProcState &p = state(proc);
    SptrCache *sc = vmm_.sptrCache();
    if (sc) {
        auto hit = sc->lookup(p.gptRootGframe);
        if (hit && p.unsynced.empty()) {
            // Hardware loads sptr directly; no VM exit.
            return false;
        }
    }
    std::uint64_t pages = p.unsynced.size();
    vmm_.chargeTrap(TrapKind::CtxSwitch, pages * kPtEntries);
    resyncAll(p);
    if (sc) {
        sc->insert(p.gptRootGframe,
                   SptrEntry{p.ctx.sptRoot, p.ctx.gptRootBacking});
    }
    return true;
}

bool
ShadowMgr::leafUnderNestedMode(ProcId proc, Addr va)
{
    ProcState &p = state(proc);
    if (p.ctx.fullNested || p.ctx.rootSwitch)
        return true;
    FrameId gframe = p.gptRootGframe;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        auto it = p.nodes.find(gframe);
        if (it != p.nodes.end() && it->second.nested)
            return true;
        const Pte *gpte = p.gpt->entry(va, d);
        if (!gpte || !gpte->valid || endsWalk(d, gpte->pageSize))
            return false;
        gframe = gpte->pfn;
    }
    return false;
}

void
ShadowMgr::refreshLeaf(ProcId proc, Addr va)
{
    ProcState &p = state(proc);
    auto gm = p.gpt->lookup(va);
    if (!gm)
        return;
    Pte *gpte = p.gpt->entry(va, gm->depth);
    auto sm = p.spt->lookup(va);
    if (sm && !sm->pte.switching)
        fillLeaf(p, va, gm->depth, *gpte);
    if (coh_)
        coh_->flushPage(va, p.ctx.asid, CoherenceCause::Resync);
}

void
ShadowMgr::emulateDirtyWrite(ProcId proc, Addr va)
{
    ProcState &p = state(proc);
    vmm_.chargeTrap(TrapKind::AdEmulation);
    ++adEmulations;
    // Set the guest dirty bit and upgrade the shadow entry.
    auto gm = p.gpt->lookup(va);
    if (!gm)
        return; // raced with an unmap; the retry will fault properly
    Pte *gpte = p.gpt->entry(va, gm->depth);
    gpte->dirty = true;
    gpte->accessed = true;
    auto sm = p.spt->lookup(va);
    if (sm && !sm->pte.switching) {
        Pte *spte = p.spt->entry(va, sm->depth);
        spte->writable =
            gpte->writable && vmm_.hostWritable(gm->pfn);
        spte->dirty = true;
        // Re-merge the frame too: a host-side COW break may have moved
        // the backing since this entry was filled.
        if (sm->depth == gm->depth) {
            FrameId fresh = vmm_.backing(gm->pfn);
            if (fresh != PhysMem::kNoFrame)
                spte->pfn = fresh;
        } else if (sm->depth == kPtLevels - 1) {
            // 4K shadow piece of a larger guest page.
            std::uint64_t frames = pageBytes(gm->size) / kPageBytes;
            FrameId gframe = gm->pfn + (frameOf(va) % frames);
            FrameId fresh = vmm_.backing(gframe);
            if (fresh != PhysMem::kNoFrame)
                spte->pfn = fresh;
        }
    }
    // The stale read-only translation may be cached.
    if (coh_)
        coh_->flushPage(va, p.ctx.asid, CoherenceCause::Resync);
}

void
ShadowMgr::convertToNested(ProcId proc, Addr va, unsigned depth)
{
    ProcState &p = state(proc);
    ap_assert(p.agile, "mode conversion outside agile paging");
    FrameId gframe = depth == 0 ? p.gptRootGframe
                                : p.gpt->tableFrame(va, depth);
    ap_assert(gframe != PhysMem::kNoFrame, "converting absent PT page");
    auto it = p.nodes
                  .try_emplace(gframe, GptNode{nodeBase(va, depth), depth,
                                               false, false, 0})
                  .first;
    GptNode &node = it->second;
    if (node.nested)
        return;
    ++convertsToNested;
    AP_DPRINTF(Shadow, "proc ", proc, ": convert to nested va=0x",
               std::hex, va, std::dec, " depth=", depth);

    Addr base = nodeBase(va, depth);
    Addr span = nodeSpan(depth);

    // Mark this node and every registered descendant nested; clear
    // their dirty baseline so the scan policy starts fresh.
    std::uint64_t converted = 0;
    for (auto &[gf, n] : p.nodes) {
        bool inside = n.depth > depth && n.vaBase >= base &&
                      n.vaBase < base + span;
        if ((gf == gframe) || inside) {
            if (n.unsynced) {
                n.unsynced = false;
                p.unsynced.erase(std::remove(p.unsynced.begin(),
                                             p.unsynced.end(), gf),
                                 p.unsynced.end());
            }
            n.nested = true;
            n.intervalWrites = 0;
            vmm_.consumeGptDirty(gf);
            ++converted;
        }
    }

    if (depth == 0) {
        // Whole process nested: the sptr register carries the switch.
        p.ctx.rootSwitch = true;
        p.ctx.gptRootBacking = vmm_.ensurePtBacked(p.gptRootGframe);
        p.spt->clear();
        if (coh_)
            coh_->flushAsid(p.ctx.asid, CoherenceCause::ModeSwitch);
    } else {
        // Replace the parent shadow entry with a switching entry.
        p.spt->invalidateEntry(va, depth - 1);
        Pte *spte = p.spt->ensurePath(va, depth - 1);
        ap_assert(spte, "shadow allocation failed during conversion");
        *spte = Pte{};
        spte->valid = true;
        spte->switching = true;
        spte->pfn = vmm_.ensurePtBacked(gframe);
        flushRegion(p, base, span);
    }
    vmm_.chargeTrap(TrapKind::ModeConvert, converted);
}

void
ShadowMgr::convertToShadow(ProcId proc, Addr va, unsigned depth)
{
    ProcState &p = state(proc);
    ap_assert(p.agile, "mode conversion outside agile paging");
    FrameId gframe = depth == 0 ? p.gptRootGframe
                                : p.gpt->tableFrame(va, depth);
    if (gframe == PhysMem::kNoFrame)
        return; // the PT page was freed meanwhile
    auto it = p.nodes.find(gframe);
    if (it == p.nodes.end() || !it->second.nested)
        return;
    GptNode &node = it->second;
    ++convertsToShadow;
    AP_DPRINTF(Shadow, "proc ", proc, ": convert to shadow va=0x",
               std::hex, va, std::dec, " depth=", depth);
    node.nested = false;
    node.intervalWrites = 0;

    std::uint64_t merged = 0;
    if (depth == 0) {
        p.ctx.rootSwitch = false;
        if (coh_)
            coh_->flushAsid(p.ctx.asid, CoherenceCause::ModeSwitch);
    } else {
        // Clear the switching entry and eagerly re-merge the region's
        // leaves inside the same VM exit — the VMM has everything it
        // needs, and fault-driven rebuilding would cost one exit per
        // page instead of per-entry table work here.
        if (Pte *spte = p.spt->entry(va, depth - 1)) {
            if (spte->valid && spte->switching)
                *spte = Pte{};
        }
        merged = prefillRegion(p, gframe, node);
        flushRegion(p, nodeBase(va, depth), nodeSpan(depth));
    }
    vmm_.chargeTrap(TrapKind::ModeConvert, 1 + merged);
}

std::uint64_t
ShadowMgr::prefillRegion(ProcState &p, FrameId gframe, const GptNode &node)
{
    // Only pages holding leaf entries are pre-merged; deeper
    // conversions refill through their children as those convert.
    if (node.depth < kPtLevels - 2)
        return 0;
    Addr span = spanAtDepth(node.depth);
    PtPage &gpage = mem_.table(vmm_.ensurePtBacked(gframe));
    std::uint64_t merged = 0;
    for (unsigned i = 0; i < kPtEntries; ++i) {
        Pte &gpte = gpage[i];
        if (!gpte.valid)
            continue;
        if (!endsWalk(node.depth, gpte.pageSize))
            continue; // pointer entry: child nodes handle it
        Addr va = node.vaBase + static_cast<Addr>(i) * span;
        if (fillLeaf(p, va, node.depth, gpte))
            ++merged;
    }
    return merged;
}

void
ShadowMgr::onGptPageFree(ProcId proc, FrameId gframe)
{
    ProcState &p = state(proc);
    auto it = p.nodes.find(gframe);
    if (it == p.nodes.end())
        return;
    GptNode &node = it->second;
    if (node.unsynced) {
        p.unsynced.erase(std::remove(p.unsynced.begin(), p.unsynced.end(),
                                     gframe),
                         p.unsynced.end());
    }
    // Drop shadow state derived from this page: the parent-level entry
    // covering the page's whole region (switching or pointer).
    if (node.depth > 0) {
        p.spt->invalidateEntry(node.vaBase, node.depth - 1);
        flushRegion(p, node.vaBase, nodeSpan(node.depth));
    }
    p.nodes.erase(it);
}

void
ShadowMgr::onModeRegisterWrite(ProcId proc)
{
    ProcState &p = state(proc);
    if (coh_)
        coh_->flushAsid(p.ctx.asid, CoherenceCause::ModeSwitch);
}

bool
ShadowMgr::consumeShadowAccessed(ProcId proc, Addr va)
{
    ProcState &p = state(proc);
    auto sm = p.spt->lookup(va);
    if (!sm || sm->pte.switching)
        return false;
    Pte *spte = p.spt->entry(va, sm->depth);
    bool was = spte->accessed;
    spte->accessed = false;
    return was;
}

void
ShadowMgr::invalidateByGuestFrames(const std::vector<FrameId> &gframes)
{
    if (gframes.empty())
        return;
    std::unordered_map<FrameId, bool> affected;
    for (FrameId g : gframes)
        affected[g] = true;
    for (auto &[proc, p] : procs_) {
        // Find the guest VAs mapping any affected frame, then drop the
        // corresponding shadow leaves (they hold the old host frame).
        struct Hit
        {
            Addr va;
            unsigned depth;
        };
        std::vector<Hit> hits;
        p.gpt->forEachTerminal(
            [&](Addr va, const Pte &pte, unsigned depth) {
                std::uint64_t frames =
                    pageBytes(sizeAtDepth(depth)) / kPageBytes;
                for (std::uint64_t i = 0; i < frames; ++i) {
                    if (affected.count(pte.pfn + i)) {
                        hits.push_back(Hit{va, depth});
                        break;
                    }
                }
            });
        for (const Hit &h : hits) {
            // The shadow table may map this VA at h.depth (matched
            // granularity) or as broken-up 4K pieces; invalidating the
            // covering entry handles both.
            if (Pte *spte = p.spt->entry(h.va, h.depth)) {
                if (spte->valid && !spte->switching)
                    p.spt->invalidateEntry(h.va, h.depth);
            }
            flushRegion(p, regionBase(h.va, h.depth),
                        spanAtDepth(h.depth));
        }
    }
}

std::uint64_t
ShadowMgr::prefillAll(ProcId proc)
{
    ProcState &p = state(proc);
    struct Item
    {
        Addr va;
        unsigned depth;
    };
    std::vector<Item> items;
    p.gpt->forEachTerminal([&](Addr va, const Pte &, unsigned depth) {
        items.push_back(Item{va, depth});
    });
    std::uint64_t merged = 0;
    for (const Item &item : items) {
        // Re-read the entry (fillLeaf mutates A/D bits).
        Pte *gpte = p.gpt->entry(item.va, item.depth);
        if (!gpte || !gpte->valid)
            continue;
        // Register/protect the node path for this VA as a demand fill
        // would, so write interception covers the rebuilt regions.
        FrameId gframe = p.gptRootGframe;
        for (unsigned d = 0; d <= item.depth; ++d) {
            p.nodes.try_emplace(
                gframe, GptNode{nodeBase(item.va, d), d, false, false, 0});
            if (d < item.depth) {
                const Pte *e = p.gpt->entry(item.va, d);
                if (!e || !e->valid)
                    break;
                gframe = e->pfn;
            }
        }
        if (fillLeaf(p, item.va, item.depth, *gpte))
            ++merged;
    }
    return merged;
}

void
ShadowMgr::zapProcess(ProcId proc)
{
    ProcState &p = state(proc);
    p.spt->clear();
    p.nodes.clear();
    p.unsynced.clear();
    p.nodes[p.gptRootGframe] = GptNode{0, 0, false, false, 0};
    p.ctx.rootSwitch = false;
    if (coh_)
        coh_->flushAsid(p.ctx.asid, CoherenceCause::ModeSwitch);
}

} // namespace ap
