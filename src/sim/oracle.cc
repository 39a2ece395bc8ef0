/**
 * @file
 * Differential oracle implementation.
 */

#include "sim/oracle.hh"

#include <algorithm>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>

#include "base/rng.hh"
#include "walker/backend.hh"

namespace ap
{

namespace
{

/** Test-sized machine config shared by the three lock-step modes. */
SimConfig
oracleConfig(VirtMode mode, const OracleOptions &opts)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.pageSize = opts.pageSize;
    // Sized for 2 MB guest pages: a fork COW break of one huge page
    // consumes 512 contiguous 4K frames, so the pools need dozens of
    // huge pages of live headroom (freed groups are recycled).
    cfg.hostMemFrames = std::uint64_t{1} << 17;
    cfg.guestPtFrames = std::uint64_t{1} << 13;
    cfg.guestDataFrames = std::uint64_t{1} << 16;
    if (opts.hwOpts && backendTraits(mode).usesShadowMgr)
        cfg.enableHwOpts();
    // The default interval is sized for million-op runs; shrink it so
    // the agile policy actually converts modes within a short trace
    // (exercising coverage monotonicity under mode-convert traps).
    cfg.policyIntervalOps = 2000;
    // The oracle is the independent checker; the machine's built-in
    // verification would panic before the oracle could report.
    cfg.verifyTranslations = false;
    cfg.numVcpus = opts.numVcpus;
    cfg.tlbCoherence = opts.tlbCoherence;
    return cfg;
}

/**
 * Corrupt one clean, shadowed leaf PTE in @p m (pfn off by one) — the
 * kind of bug a VMM coherence slip would produce. Returns false when
 * no eligible leaf exists yet. The chosen leaf's PT page is neither
 * unsynced nor nested, so the next coherence sweep must flag it.
 */
bool
injectShadowBug(Machine &m)
{
    ShadowMgr *smgr = m.shadowMgr();
    if (!smgr)
        return false;
    ProcId pid = m.currentProcess();
    if (!smgr->hasProcess(pid))
        return false;
    ShadowMgr::ProcState &st = smgr->state(pid);
    if (st.ctx.fullNested || st.ctx.rootSwitch)
        return false;

    Addr target_va = 0;
    unsigned target_depth = 0;
    bool found = false;
    st.spt->forEachTerminal([&](Addr va, const Pte &spte,
                                unsigned depth) {
        if (spte.switching)
            return true;
        auto gm = st.gpt->lookup(va);
        if (!gm)
            return true;
        FrameId holder = gm->depth == 0
                             ? st.gptRootGframe
                             : st.gpt->tableFrame(va, gm->depth);
        auto nit = st.nodes.find(holder);
        if (nit != st.nodes.end() &&
            (nit->second.unsynced || nit->second.nested)) {
            return true;
        }
        target_va = va;
        target_depth = depth;
        found = true;
        return false;
    });
    if (!found)
        return false;
    Pte *spte = st.spt->entry(target_va, target_depth);
    spte->pfn += 1;
    return true;
}

/**
 * Plant a writable TLB entry for a VA the guest never maps into the
 * last vCPU of @p m — exactly what a missed shootdown leaves behind.
 * The residency sweep must flag it as stale.
 */
void
injectStaleTlbEntry(Machine &m)
{
    // Far above the oracle's region slots (which start at 1<<32 and
    // grow in 4 MB steps), so no trace can legitimately map it.
    constexpr Addr kNeverMapped = Addr{1} << 45;
    TlbEntry e;
    e.pfn = 0xdead;
    e.writable = true;
    e.dirty = true;
    e.asid = m.currentProcess();
    m.tlbOf(m.numVcpus() - 1).l1d4k.insert(kNeverMapped, e.asid, e);
}

/**
 * Plant a segment register covering VAs the guest never maps into the
 * last vCPU of @p m's range backend — what a missed segment
 * invalidation leaves behind. The segment-residency sweep must flag
 * it. No-op (returns false) when @p m is not a range machine.
 */
bool
injectStaleSegment(Machine &m)
{
    RangeBackend *rb = m.rangeBackend();
    if (!rb)
        return false;
    RangeBackend::SegmentReg seg;
    seg.asid = m.currentProcess();
    seg.vaBase = Addr{1} << 45; // above every oracle region slot
    seg.pages = 4;
    seg.hbase = 0xdead;
    seg.lastUse = 1;
    rb->plantSegment(rb->numVcpus() - 1, seg);
    return true;
}

} // namespace

Trace
makeRandomTrace(const OracleOptions &opts)
{
    // Decorrelate neighbouring seeds (1, 2, 3, ...) into distinct
    // streams.
    Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 0x8badf00d);
    Trace t;
    t.workload = "difftest";
    t.seed = opts.seed;
    t.warmupEvents = 0;

    struct Region
    {
        Addr base = 0;
        std::uint64_t pages = 0;
        bool writable = false;
    };
    std::vector<Region> regions;
    // Fixed 4 MB slots above 4 GB: every base is 2M-aligned (so a
    // 2M-granule guest can map large pages) and never reused, so a
    // replayed MmapAt cannot collide with a live region.
    constexpr Addr kBase = Addr{1} << 32;
    constexpr Addr kSlot = Addr{4} << 20;
    std::uint64_t next_slot = 0;

    auto addRegion = [&](bool large) {
        Region r;
        r.base = kBase + kSlot * next_slot++;
        r.pages = large ? 512 : rng.nextRange(16, 64);
        // Every region is writable: forkTouchExit children write to
        // random mapped VAs, so a read-only region would segfault the
        // guest. Write-protection is still exercised through fork COW
        // and shadow dirty tracking.
        r.writable = true;
        bool file_backed = rng.chance(0.3);
        TraceEvent e;
        e.kind = TraceEvent::Kind::MmapAt;
        e.addr = r.base;
        e.arg = r.pages * kPageBytes;
        e.fileId = file_backed ? rng.nextRange(1, 3) : 0;
        e.flag = r.writable;
        e.fileBacked = file_backed;
        t.events.push_back(e);
        regions.push_back(r);
    };
    for (int i = 0; i < 5; ++i)
        addRegion(i == 0);

    auto pushAccess = [&](TraceEvent::Kind kind) {
        const Region &r = regions[rng.nextBelow(regions.size())];
        TraceEvent e;
        e.kind = kind;
        e.addr = r.base + rng.nextBelow(r.pages) * kPageBytes +
                 rng.nextBelow(kPageBytes);
        e.flag = kind == TraceEvent::Kind::Access && r.writable &&
                 rng.chance(0.4);
        t.events.push_back(e);
    };

    for (std::uint64_t i = 0; i < opts.operations; ++i) {
        std::uint64_t roll = rng.nextBelow(100);
        if (roll < 62) {
            pushAccess(TraceEvent::Kind::Access);
        } else if (roll < 70) {
            pushAccess(TraceEvent::Kind::InstrFetch);
        } else if (roll < 74) {
            addRegion(rng.chance(0.25));
        } else if (roll < 78 && regions.size() > 2) {
            std::size_t victim = rng.nextBelow(regions.size());
            TraceEvent e;
            e.kind = TraceEvent::Kind::Munmap;
            e.addr = regions[victim].base;
            e.arg = regions[victim].pages * kPageBytes;
            t.events.push_back(e);
            regions.erase(regions.begin() +
                          static_cast<std::ptrdiff_t>(victim));
        } else if (roll < 82) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::Compute;
            e.arg = rng.nextRange(100, 400);
            t.events.push_back(e);
        } else if (roll < 87) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::Yield;
            t.events.push_back(e);
        } else if (roll < 90) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::ForkTouchExit;
            e.arg = rng.nextRange(2, 5);
            t.events.push_back(e);
        } else if (roll < 92) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::SharePages;
            t.events.push_back(e);
        } else if (roll < 94 && opts.includeReclaim) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::ReclaimTick;
            e.arg = rng.nextRange(8, 32);
            t.events.push_back(e);
        } else {
            pushAccess(TraceEvent::Kind::Access);
        }
    }
    return t;
}

OracleReport
runDifferential(const Trace &trace, const OracleOptions &opts)
{
    OracleReport rep;
    constexpr int kMachines = 4;
    const VirtMode modes[kMachines] = {VirtMode::Shadow, VirtMode::Nested,
                                       VirtMode::Agile, VirtMode::Range};
    std::unique_ptr<Machine> machines[kMachines];
    RunResult prev[kMachines];
    for (int i = 0; i < kMachines; ++i) {
        machines[i] =
            std::make_unique<Machine>(oracleConfig(modes[i], opts));
        machines[i]->spawnProcess();
    }
    Machine &shadow = *machines[0];
    Machine &agile = *machines[2];
    Machine &range = *machines[3];

    bool lockstep = std::none_of(
        trace.events.begin(), trace.events.end(), [](const TraceEvent &e) {
            return e.kind == TraceEvent::Kind::ReclaimTick;
        });

    auto fail = [&](const InvariantViolation &v) {
        rep.violations.push_back(v);
        rep.passed = false;
    };
    auto sweep = [&](std::uint64_t idx) {
        if (auto v = checkShadowCoherence(shadow, idx))
            fail(*v);
        else if (auto v2 = checkShadowCoherence(agile, idx))
            fail(*v2);
        for (auto &m : machines) {
            if (!rep.passed)
                break;
            if (auto v = checkTlbResidency(*m, idx))
                fail(*v);
            else if (auto v2 = checkSegmentResidency(*m, idx))
                fail(*v2);
        }
    };

    std::uint64_t access_no = 0;
    bool injected = false;
    bool stale_injected = false;
    bool stale_seg_injected = false;
    for (std::size_t idx = 0;
         idx < trace.events.size() && rep.passed; ++idx) {
        const TraceEvent &e = trace.events[idx];
        for (auto &m : machines)
            applyTraceEvent(*m, e);
        rep.eventsReplayed = idx + 1;

        bool is_access = e.kind == TraceEvent::Kind::Access ||
                         e.kind == TraceEvent::Kind::InstrFetch;
        if (e.kind == TraceEvent::Kind::Access)
            ++access_no;
        if (opts.injectAtAccess && !injected &&
            access_no >= opts.injectAtAccess) {
            // Inject after the event settles, then sweep immediately:
            // no other event can repair the corruption first. Prefer
            // the agile machine (its shadow portion only exists once
            // the policy has converted a region); fall back to the
            // always-shadowed machine so short traces still self-test.
            injected = injectShadowBug(agile) || injectShadowBug(shadow);
            if (injected)
                sweep(idx);
        }
        if (opts.injectStaleTlbAtAccess && !stale_injected &&
            access_no >= opts.injectStaleTlbAtAccess) {
            // Sweep immediately: a later flush event would repair the
            // plant and mask a broken sweep.
            injectStaleTlbEntry(agile);
            stale_injected = true;
            sweep(idx);
        }
        if (opts.injectStaleSegmentAtAccess && !stale_seg_injected &&
            access_no >= opts.injectStaleSegmentAtAccess) {
            // Sweep immediately: a later broadcast would drop the
            // planted segment and mask a broken sweep.
            stale_seg_injected = injectStaleSegment(range);
            if (stale_seg_injected)
                sweep(idx);
        }

        if (is_access && rep.passed) {
            ++rep.accessesChecked;
            bool write = e.kind == TraceEvent::Kind::Access && e.flag;
            for (auto &m : machines) {
                if (auto v =
                        checkAccessInvariants(*m, e.addr, write, idx)) {
                    fail(*v);
                    break;
                }
            }
            if (lockstep && rep.passed) {
                if (auto v = checkCrossMachine(shadow, *machines[1],
                                               e.addr, idx)) {
                    fail(*v);
                } else if (auto v2 = checkCrossMachine(shadow, agile,
                                                       e.addr, idx)) {
                    fail(*v2);
                } else if (auto v3 = checkCrossMachine(shadow, range,
                                                       e.addr, idx)) {
                    fail(*v3);
                }
            }
        }
        if (rep.passed) {
            for (int i = 0; i < kMachines; ++i) {
                if (auto v = checkCounterInvariants(*machines[i],
                                                    prev[i], idx)) {
                    fail(*v);
                    break;
                }
            }
        }
        if (rep.passed && opts.sweepInterval &&
            (idx + 1) % opts.sweepInterval == 0) {
            sweep(idx);
        }
    }
    if (rep.passed)
        sweep(trace.events.empty() ? 0 : trace.events.size() - 1);
    return rep;
}

Trace
shrinkTrace(const Trace &trace, const OracleOptions &opts)
{
    auto fails = [&](const Trace &t) {
        // Candidates routinely violate replay preconditions (an access
        // whose mmap was dropped panics); silence the panic spam and
        // treat any exception as "not the same failure".
        std::streambuf *old = std::cerr.rdbuf();
        std::ostringstream sink;
        std::cerr.rdbuf(sink.rdbuf());
        bool failed;
        try {
            failed = !runDifferential(t, opts).passed;
        } catch (const std::exception &) {
            failed = false;
        }
        std::cerr.rdbuf(old);
        return failed;
    };

    Trace best = trace;
    if (!fails(best))
        return best;
    for (std::size_t chunk = std::max<std::size_t>(
             1, best.events.size() / 2);
         ; chunk /= 2) {
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t i = 0; i < best.events.size();) {
                Trace cand = best;
                auto first = cand.events.begin() +
                             static_cast<std::ptrdiff_t>(i);
                auto last = cand.events.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::min(i + chunk, cand.events.size()));
                cand.events.erase(first, last);
                if (!cand.events.empty() && fails(cand)) {
                    best = std::move(cand);
                    progress = true;
                    // Retry the same index: new events shifted in.
                } else {
                    i += chunk;
                }
            }
        }
        if (chunk == 1)
            break;
    }
    return best;
}

} // namespace ap
