/**
 * @file
 * Invariant checker implementation.
 */

#include "sim/invariants.hh"

#include <cmath>
#include <sstream>

#include "base/bitfield.hh"

namespace ap
{

namespace
{

struct HostHit
{
    FrameId h4k = 0;
    bool writable = false;
};

/** Second-stage walk: gframe through the host table (no nTLB). */
std::optional<HostHit>
archHostWalk(const PhysMem &mem, FrameId hpt_root, FrameId gframe)
{
    Addr gpa = frameAddr(gframe);
    FrameId f = hpt_root;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        const Pte &pte = mem.table(f)[ptIndex(gpa, d)];
        if (!pte.valid)
            return std::nullopt;
        if (endsWalk(d, pte.pageSize)) {
            std::uint64_t frames = pageBytes(sizeAtDepth(d)) / kPageBytes;
            return HostHit{pte.pfn + (gframe % frames), pte.writable};
        }
        f = pte.pfn;
    }
    return std::nullopt;
}

/**
 * Nested walk of guest levels [depth..leaf] starting from the host
 * frame backing the guest PT page at @p depth, each pointer and the
 * leaf translated through the host table.
 */
std::optional<ArchLeaf>
archNestedFrom(const PhysMem &mem, const TranslationContext &ctx, Addr va,
               unsigned depth, FrameId cur_host)
{
    FrameId cur = cur_host;
    for (unsigned d = depth; d < kPtLevels; ++d) {
        const Pte &pte = mem.table(cur)[ptIndex(va, d)];
        if (!pte.valid)
            return std::nullopt;
        if (endsWalk(d, pte.pageSize)) {
            std::uint64_t gframes = pageBytes(sizeAtDepth(d)) / kPageBytes;
            FrameId gf = pte.pfn + (frameOf(va) % gframes);
            auto h = archHostWalk(mem, ctx.hptRoot, gf);
            if (!h)
                return std::nullopt;
            return ArchLeaf{h->h4k, pte.writable && h->writable};
        }
        auto h = archHostWalk(mem, ctx.hptRoot, pte.pfn);
        if (!h)
            return std::nullopt;
        cur = h->h4k;
    }
    return std::nullopt;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

InvariantViolation
violation(std::string invariant, std::string detail,
          std::uint64_t event_index, Addr va)
{
    InvariantViolation v;
    v.invariant = std::move(invariant);
    v.detail = std::move(detail);
    v.eventIndex = event_index;
    v.va = va;
    return v;
}

} // namespace

std::optional<ArchLeaf>
resolveArch(Machine &m, ProcId pid, Addr va)
{
    const TranslationContext &ctx = m.guestOs().context(pid);
    const PhysMem &mem = m.physMem();

    if (ctx.mode == VirtMode::Native) {
        FrameId cur = ctx.nativeRoot;
        for (unsigned d = 0; d < kPtLevels; ++d) {
            const Pte &pte = mem.table(cur)[ptIndex(va, d)];
            if (!pte.valid)
                return std::nullopt;
            if (endsWalk(d, pte.pageSize)) {
                std::uint64_t frames = pageBytes(sizeAtDepth(d)) / kPageBytes;
                return ArchLeaf{pte.pfn + (frameOf(va) % frames),
                                pte.writable};
            }
            cur = pte.pfn;
        }
        return std::nullopt;
    }

    // Range mode translates through the same two-stage tables as
    // nested; segments are a cached view validated against them.
    if (ctx.mode == VirtMode::Nested || ctx.mode == VirtMode::Range ||
        ctx.fullNested) {
        auto root = archHostWalk(mem, ctx.hptRoot, ctx.gptRoot);
        if (!root)
            return std::nullopt;
        return archNestedFrom(mem, ctx, va, 0, root->h4k);
    }

    // Shadow/agile/SHSP: walk the shadow table, honoring switching
    // entries exactly as the hardware walker does (Fig. 4).
    if (ctx.rootSwitch)
        return archNestedFrom(mem, ctx, va, 0, ctx.gptRootBacking);
    FrameId cur = ctx.sptRoot;
    for (unsigned d = 0; d < kPtLevels; ++d) {
        const Pte &pte = mem.table(cur)[ptIndex(va, d)];
        if (!pte.valid)
            return std::nullopt;
        if (pte.switching)
            return archNestedFrom(mem, ctx, va, d + 1, pte.pfn);
        if (endsWalk(d, pte.pageSize)) {
            std::uint64_t frames = pageBytes(sizeAtDepth(d)) / kPageBytes;
            return ArchLeaf{pte.pfn + (frameOf(va) % frames),
                            pte.writable};
        }
        cur = pte.pfn;
    }
    return std::nullopt;
}

std::optional<InvariantViolation>
checkAccessInvariants(Machine &m, Addr va, bool write,
                      std::uint64_t event_index)
{
    ProcId pid = m.currentProcess();
    GuestOs &gos = m.guestOs();

    FrameId leaf = gos.leafFrame(pid, va);
    if (!leaf) {
        return violation("translation",
                         "access completed but the guest has no "
                         "functional mapping at " + hex(va),
                         event_index, va);
    }
    FrameId expected = gos.isNative() ? leaf : m.vmm()->backing(leaf);
    if (!expected) {
        return violation("translation",
                         "guest frame " + hex(leaf) + " for " + hex(va) +
                             " has no host backing after an access",
                         event_index, va);
    }

    auto arch = resolveArch(m, pid, va);
    if (!arch) {
        return violation("translation",
                         "architectural walk cannot resolve " + hex(va) +
                             " after a completed access",
                         event_index, va);
    }
    if (arch->h4k != expected) {
        return violation("translation",
                         "architectural walk of " + hex(va) +
                             " lands on host frame " + hex(arch->h4k) +
                             " but the functional mapping is backed by " +
                             hex(expected),
                         event_index, va);
    }
    // Hardware may temporarily deny writes the guest allows (shadow
    // dirty tracking, host COW) — resolved through faults — but must
    // never grant a write the guest's tables do not.
    if (arch->writable && !gos.guestMappingWritable(pid, va)) {
        return violation("translation",
                         "hardware grants write access at " + hex(va) +
                             " beyond the guest's permission",
                         event_index, va);
    }

    if (write) {
        if (!arch->writable) {
            return violation("translation",
                             "store retired at " + hex(va) +
                                 " but the final translation is "
                                 "read-only",
                             event_index, va);
        }
        auto gm = gos.process(pid).pt->lookup(va);
        if (!gm || !gm->pte.dirty) {
            return violation("dirty-bit",
                             "store retired at " + hex(va) +
                                 " but the guest leaf dirty bit is "
                                 "clear",
                             event_index, va);
        }
    }
    return std::nullopt;
}

std::optional<InvariantViolation>
checkCrossMachine(Machine &a, Machine &b, Addr va,
                  std::uint64_t event_index)
{
    auto ma = a.guestOs().process(a.currentProcess()).pt->lookup(va);
    auto mb = b.guestOs().process(b.currentProcess()).pt->lookup(va);
    const char *na = virtModeName(a.config().mode);
    const char *nb = virtModeName(b.config().mode);
    if (!ma || !mb) {
        if (!ma && !mb)
            return std::nullopt;
        return violation("lockstep",
                         std::string(ma ? nb : na) +
                             " has no guest mapping at " + hex(va) +
                             " while " + (ma ? na : nb) + " does",
                         event_index, va);
    }
    if (ma->pfn != mb->pfn || ma->size != mb->size) {
        return violation("lockstep",
                         std::string(na) + " maps " + hex(va) +
                             " to guest frame " + hex(ma->pfn) + " but " +
                             nb + " maps it to " + hex(mb->pfn),
                         event_index, va);
    }
    // Accessed bits are TLB-hit-timing dependent (hardware does not
    // architect when they get set); writable/dirty are not.
    if (ma->pte.writable != mb->pte.writable ||
        ma->pte.dirty != mb->pte.dirty) {
        return violation(
            "lockstep",
            std::string(na) + " guest PTE at " + hex(va) + " has W/D " +
                std::to_string(ma->pte.writable) +
                std::to_string(ma->pte.dirty) + " but " + nb + " has " +
                std::to_string(mb->pte.writable) +
                std::to_string(mb->pte.dirty),
            event_index, va);
    }
    return std::nullopt;
}

std::optional<InvariantViolation>
checkCounterInvariants(Machine &m, RunResult &prev,
                       std::uint64_t event_index)
{
    RunResult cur = m.snapshot(prev.workload);
    const char *mode = virtModeName(m.config().mode);

    auto mono = [&](std::uint64_t now, std::uint64_t before,
                    const char *what) -> std::optional<InvariantViolation> {
        if (now < before) {
            return violation("counters",
                             std::string(mode) + " " + what +
                                 " went backwards: " +
                                 std::to_string(before) + " -> " +
                                 std::to_string(now),
                             event_index, 0);
        }
        return std::nullopt;
    };
    if (auto v = mono(cur.walks, prev.walks, "walks"))
        return v;
    if (auto v = mono(cur.tlbMisses, prev.tlbMisses, "tlb misses"))
        return v;
    if (auto v = mono(cur.traps, prev.traps, "traps"))
        return v;
    if (auto v = mono(cur.walkCycles, prev.walkCycles, "walk cycles"))
        return v;
    if (auto v = mono(cur.trapCycles, prev.trapCycles, "trap cycles"))
        return v;
    if (auto v = mono(cur.shootdowns, prev.shootdowns, "shootdowns"))
        return v;
    if (auto v = mono(cur.remoteInvalidations, prev.remoteInvalidations,
                      "remote invalidations")) {
        return v;
    }
    std::uint64_t by_cause = 0;
    for (std::size_t k = 0; k < kNumCoherenceCauses; ++k)
        by_cause += cur.shootdownsByCause[k];
    if (by_cause != cur.shootdowns) {
        return violation("coherence-counters",
                         std::string(mode) +
                             " per-cause shootdowns sum to " +
                             std::to_string(by_cause) + " but the "
                             "aggregate counter is " +
                             std::to_string(cur.shootdowns),
                         event_index, 0);
    }
    // Every shootdown reaches all other vCPUs, so the remote-
    // invalidation count is exactly shootdowns x (vcpus - 1).
    std::uint64_t remotes = m.numVcpus() > 1 ? m.numVcpus() - 1 : 0;
    if (cur.remoteInvalidations != cur.shootdowns * remotes) {
        return violation("coherence-counters",
                         std::string(mode) + " counted " +
                             std::to_string(cur.remoteInvalidations) +
                             " remote invalidations for " +
                             std::to_string(cur.shootdowns) +
                             " shootdowns across " +
                             std::to_string(m.numVcpus()) + " vcpus",
                         event_index, 0);
    }
    for (int i = 0; i < 6; ++i) {
        // Mode-convert traps redirect *future* walks to a different
        // coverage class; they must never rewrite history.
        if (cur.rawCoverage[i] < prev.rawCoverage[i]) {
            return violation("coverage",
                             std::string(mode) + " raw coverage[" +
                                 std::to_string(i) + "] went backwards",
                             event_index, 0);
        }
    }

    double total = 0.0, sum = 0.0;
    for (int i = 0; i < 6; ++i) {
        total += cur.rawCoverage[i];
        sum += cur.coverage[i];
    }
    if (total > 0 && std::fabs(sum - 1.0) > 1e-9) {
        return violation("coverage",
                         std::string(mode) +
                             " coverage fractions sum to " +
                             std::to_string(sum) + ", expected 1",
                         event_index, 0);
    }
    prev = cur;
    return std::nullopt;
}

std::optional<InvariantViolation>
checkTlbResidency(Machine &m, std::uint64_t event_index)
{
    GuestOs &gos = m.guestOs();
    Vmm *vmm = m.vmm();

    std::optional<InvariantViolation> found;
    for (unsigned v = 0; v < m.numVcpus() && !found; ++v) {
        m.tlbOf(v).forEachEntry([&](Addr va, ProcId asid,
                                    const TlbEntry &e, PageSize) {
            if (found)
                return;
            std::string who = "vcpu" + std::to_string(v);
            if (!gos.hasProcess(asid) || !gos.process(asid).alive) {
                found = violation(
                    "stale-tlb",
                    who + " caches " + hex(va) + " for dead asid " +
                        std::to_string(asid) +
                        " (exit shootdown missed)",
                    event_index, va);
                return;
            }
            auto gm = gos.process(asid).pt->lookup(va);
            if (!gm) {
                found = violation(
                    "stale-tlb",
                    who + " caches " + hex(va) + " for asid " +
                        std::to_string(asid) +
                        " but the guest no longer maps it "
                        "(shootdown missed)",
                    event_index, va);
                return;
            }
            if (!e.writable)
                return;
            // Rule 2: a writable entry lets stores retire with no
            // fault, so it must match the *current* guest permission
            // and host backing exactly.
            if (!gm->pte.writable) {
                found = violation(
                    "stale-tlb",
                    who + " caches a writable entry at " + hex(va) +
                        " but the guest PTE is read-only "
                        "(write-protect shootdown missed)",
                    event_index, va);
                return;
            }
            std::uint64_t gframes = pageBytes(gm->size) / kPageBytes;
            FrameId gf = gm->pfn + (frameOf(va) % gframes);
            FrameId expected = gos.isNative() ? gf : vmm->backing(gf);
            if (e.pfn != expected) {
                found = violation(
                    "stale-tlb",
                    who + " caches a writable entry at " + hex(va) +
                        " mapping host frame " + hex(e.pfn) +
                        " but the current backing is " + hex(expected) +
                        " (remap shootdown missed)",
                    event_index, va);
            }
        });
    }
    return found;
}

std::optional<InvariantViolation>
checkSegmentResidency(Machine &m, std::uint64_t event_index)
{
    RangeBackend *rb = m.rangeBackend();
    if (!rb)
        return std::nullopt;
    GuestOs &gos = m.guestOs();
    Vmm *vmm = m.vmm();

    std::optional<InvariantViolation> found;
    for (unsigned v = 0; v < rb->numVcpus() && !found; ++v) {
        rb->forEachSegment(v, [&](const RangeBackend::SegmentReg &seg) {
            if (found)
                return;
            std::string who = "vcpu" + std::to_string(v) +
                              " segment [" + hex(seg.vaBase) + " +" +
                              std::to_string(seg.pages) + "p]";
            if (!gos.hasProcess(seg.asid)) {
                found = violation(
                    "stale-segment",
                    who + " survives for dead asid " +
                        std::to_string(seg.asid) +
                        " (exit invalidation missed)",
                    event_index, seg.vaBase);
                return;
            }
            GuestProcess &p = gos.process(seg.asid);
            for (std::uint64_t i = 0; i < seg.pages; ++i) {
                Addr va = seg.vaBase + i * kPageBytes;
                auto gm = p.pt->lookup(va);
                if (!gm) {
                    found = violation(
                        "stale-segment",
                        who + " covers " + hex(va) +
                            " but the guest no longer maps it "
                            "(munmap invalidation missed)",
                        event_index, va);
                    return;
                }
                std::uint64_t gframes = pageBytes(gm->size) / kPageBytes;
                FrameId gf = gm->pfn + (frameOf(va) % gframes);
                FrameId hb = vmm->backing(gf);
                if (hb != seg.hbase + i) {
                    found = violation(
                        "stale-segment",
                        who + " translates " + hex(va) +
                            " to host frame " + hex(seg.hbase + i) +
                            " but the current backing is " + hex(hb) +
                            " (remap invalidation missed)",
                        event_index, va);
                    return;
                }
            }
        });
    }
    return found;
}

std::optional<InvariantViolation>
checkShadowCoherence(Machine &m, std::uint64_t event_index)
{
    ShadowMgr *smgr = m.shadowMgr();
    if (!smgr)
        return std::nullopt;
    Vmm *vmm = m.vmm();
    bool hw_ad = smgr->config().hwOptAd;

    std::optional<InvariantViolation> found;
    for (ProcId pid : m.guestOs().livePids()) {
        if (found || !smgr->hasProcess(pid))
            continue;
        ShadowMgr::ProcState &st = smgr->state(pid);
        // Fully nested (or root-switched) processes have no shadow
        // entries to be coherent with.
        if (st.ctx.fullNested || st.ctx.rootSwitch)
            continue;
        auto check = [&](Addr va, const Pte &spte, unsigned depth) {
            if (spte.switching) {
                FrameId gtf = st.gpt->tableFrame(va, depth + 1);
                if (gtf == PhysMem::kNoFrame) {
                    found = violation(
                        "shadow-coherence",
                        "switching entry at " + hex(va) + " depth " +
                            std::to_string(depth) +
                            " but the guest has no PT page below it",
                        event_index, va);
                    return;
                }
                if (vmm->backing(gtf) != spte.pfn) {
                    found = violation(
                        "shadow-coherence",
                        "switching entry at " + hex(va) + " points at " +
                            hex(spte.pfn) + " but the guest PT page " +
                            hex(gtf) + " is backed by " +
                            hex(vmm->backing(gtf)),
                        event_index, va);
                }
                return;
            }
            auto gm = st.gpt->lookup(va);
            if (!gm) {
                found = violation("shadow-coherence",
                                  "shadow leaf at " + hex(va) +
                                      " with no guest mapping",
                                  event_index, va);
                return;
            }
            // The PT page holding the terminal guest entry: staleness
            // is the design for unsynced pages (resynced at the next
            // flush) and nested pages are covered by switching entries.
            FrameId holder = gm->depth == 0
                                 ? st.gptRootGframe
                                 : st.gpt->tableFrame(va, gm->depth);
            auto nit = st.nodes.find(holder);
            if (nit != st.nodes.end() &&
                (nit->second.unsynced || nit->second.nested)) {
                return;
            }

            std::uint64_t gframes = pageBytes(gm->size) / kPageBytes;
            FrameId gf = gm->pfn + (frameOf(va) % gframes);
            FrameId hb = vmm->backing(gf);
            if (hb == 0 || spte.pfn != hb) {
                found = violation(
                    "shadow-coherence",
                    "shadow leaf at " + hex(va) + " maps host frame " +
                        hex(spte.pfn) + " but guest frame " + hex(gf) +
                        " is backed by " + hex(hb),
                    event_index, va);
                return;
            }
            bool expect_w = gm->pte.writable && vmm->hostWritable(gf) &&
                            (gm->pte.dirty || hw_ad);
            if (spte.writable != expect_w) {
                found = violation(
                    "shadow-coherence",
                    "shadow leaf at " + hex(va) + " writable=" +
                        std::to_string(spte.writable) + " but guest W=" +
                        std::to_string(gm->pte.writable) + " D=" +
                        std::to_string(gm->pte.dirty) + " hostW=" +
                        std::to_string(vmm->hostWritable(gf)) +
                        " imply " + std::to_string(expect_w),
                    event_index, va);
                return;
            }
            if (spte.dirty && !gm->pte.dirty) {
                found = violation("shadow-coherence",
                                  "shadow leaf at " + hex(va) +
                                      " is dirty but the guest PTE is "
                                      "clean",
                                  event_index, va);
            }
        };
        st.spt->forEachTerminal([&](Addr va, const Pte &spte,
                                    unsigned depth) {
            check(va, spte, depth);
            return !found;
        });
    }
    return found;
}

} // namespace ap
