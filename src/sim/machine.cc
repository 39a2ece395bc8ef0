/**
 * @file
 * Machine implementation: composition, the access path (TLB probe,
 * fault-servicing walk loop, protection resolution), scheduling, and
 * interval-driven policies.
 */

#include "sim/machine.hh"

#include <algorithm>

#include "base/bitfield.hh"
#include "base/debug.hh"
#include "base/logging.hh"

namespace ap
{

Machine::Machine(const SimConfig &cfg)
    : stats::StatGroup("machine"),
      instructionsStat(this, "instructions", "instructions executed",
                       [this] { return double(instructions_); }),
      walkCyclesStat(this, "walk_cycles", "translation cycles",
                     [this] { return double(walk_cycles_); }),
      l2HitCyclesStat(this, "l2_hit_cycles", "cycles in L2 TLB hits"),
      protFaults(this, "prot_faults", "write-permission fixups"),
      guestPtFrameRecycles(
          this, "guest_pt_frame_recycles",
          "guest PT frame ids served by recycling",
          [this] { return vmm_ ? double(vmm_->ptAllocator().recycles())
                               : 0.0; }),
      guestPtFrameHighWater(
          this, "guest_pt_frame_high_water",
          "most guest PT frame ids simultaneously allocated",
          [this] { return vmm_ ? double(vmm_->ptAllocator().highWater())
                               : 0.0; }),
      guestDataFrameRecycles(
          this, "guest_data_frame_recycles",
          "guest data frame ids served by recycling",
          [this] { return vmm_ ? double(vmm_->dataAllocator().recycles())
                               : 0.0; }),
      guestDataFrameHighWater(
          this, "guest_data_frame_high_water",
          "most guest data frame ids simultaneously allocated",
          [this] { return vmm_ ? double(vmm_->dataAllocator().highWater())
                               : 0.0; }),
      cfg_(cfg),
      rng_(12345),          // workload stream: identical in every mode
      internal_rng_(12345), // machine stream: driven by events only
      mem_(cfg.hostMemFrames)
{
    tlb_ = std::make_unique<TlbHierarchy>(this, cfg_.tlb);
    pwc_ = std::make_unique<PageWalkCache>(this, cfg_.pwcEntries,
                                           cfg_.pwcWays, cfg_.pwcEnabled);
    ntlb_ = std::make_unique<NestedTlb>(this, cfg_.ntlbEntries,
                                        cfg_.ntlbWays, cfg_.ntlbEnabled);
    walker_ = std::make_unique<Walker>(this, mem_, *pwc_, *ntlb_);

    // Translation coherence: every vCPU's private stack registers with
    // the shared domain; the guest OS and shadow manager invalidate
    // through it. The nested TLB caches gPA->hPA and is per-VM, so the
    // extra vCPUs share ntlb_ (and the walker serializes through it
    // deterministically under the round-robin schedule).
    coh_ = std::make_unique<CoherenceDomain>(this, cfg_.tlbCoherence,
                                             cfg_.ipiShootdownCycles,
                                             cfg_.hwInvalidateCycles);
    coh_->addVcpu(tlb_.get(), pwc_.get());
    for (unsigned v = 1; v < cfg_.numVcpus; ++v) {
        auto stack = std::make_unique<VcpuStack>();
        stack->group = std::make_unique<stats::StatGroup>(
            "vcpu" + std::to_string(v), this);
        stack->tlb = std::make_unique<TlbHierarchy>(stack->group.get(),
                                                    cfg_.tlb);
        stack->pwc = std::make_unique<PageWalkCache>(
            stack->group.get(), cfg_.pwcEntries, cfg_.pwcWays,
            cfg_.pwcEnabled);
        stack->walker = std::make_unique<Walker>(stack->group.get(),
                                                 mem_, *stack->pwc,
                                                 *ntlb_);
        coh_->addVcpu(stack->tlb.get(), stack->pwc.get());
        extra_vcpus_.push_back(std::move(stack));
    }
    setActiveVcpu(0);
    vcpu_quantum_left_ = cfg_.vcpuQuantumOps;

    // Resolve the translation backend: range translation keeps
    // per-vCPU segment files and stats, so each machine builds its own;
    // the classic paging families share the stateless singletons.
    if (cfg_.mode == VirtMode::Range) {
        range_backend_ = std::make_unique<RangeBackend>(
            this, cfg_.numVcpus, cfg_.range);
        backend_ = range_backend_.get();
    } else {
        backend_ = &builtinBackend(cfg_.mode);
    }
    walker_->setBackend(backend_, 0);
    for (unsigned v = 1; v < cfg_.numVcpus; ++v)
        extra_vcpus_[v - 1]->walker->setBackend(backend_, v);
    if (CoherenceListener *listener = backend_->coherenceListener())
        coh_->addListener(listener);

    const BackendTraits &traits = backendTraits(cfg_.mode);
    if (traits.usesVmm) {
        VmmConfig vcfg;
        vcfg.guestPtFrames = cfg_.guestPtFrames;
        vcfg.guestDataFrames = cfg_.guestDataFrames;
        vcfg.hostPageSize = cfg_.pageSize;
        vcfg.costs = cfg_.trapCosts;
        vcfg.sptrCacheEntries = cfg_.sptrCacheEntries;
        vmm_ = std::make_unique<Vmm>(this, mem_, vcfg, ntlb_.get());
        if (traits.usesShadowMgr) {
            ShadowConfig scfg;
            scfg.unsyncEnabled = cfg_.unsyncEnabled;
            scfg.hwOptAd = cfg_.hwOptAd;
            smgr_ = std::make_unique<ShadowMgr>(this, mem_, *vmm_, scfg,
                                                coh_.get());
            if (traits.usesAgilePolicy) {
                policy_ = std::make_unique<AgilePolicy>(this, *smgr_,
                                                        cfg_.policy);
            } else if (traits.usesShsp) {
                shsp_ = std::make_unique<ShspController>(this, *smgr_,
                                                         cfg_.shsp);
            }
        }
    }

    GuestOsConfig gcfg = cfg_.guestOs;
    // The guest granule follows the machine page size unless the
    // caller picked a different guest granule explicitly (mixed-stage
    // configurations, Section V).
    if (gcfg.pageSize == PageSize::Size4K)
        gcfg.pageSize = cfg_.pageSize;
    guest_os_ = std::make_unique<GuestOs>(this, mem_, vmm_.get(),
                                          smgr_.get(), coh_.get(), gcfg);
    guest_os_->onMediatedGptWrite = [this](ProcId pid, Addr va,
                                           unsigned depth,
                                           const GptWriteOutcome &out) {
        if (policy_)
            policy_->onMediatedWrite(pid, va, depth, out);
    };
    guest_os_->onAnyGptWrite = [this](ProcId, Addr, unsigned) {
        ++interval_gpt_writes_;
    };

    next_interval_ = cfg_.policyIntervalOps;
}

Machine::~Machine() = default;

void
Machine::setActiveVcpu(unsigned vcpu)
{
    active_vcpu_ = vcpu;
    if (vcpu == 0) {
        atlb_ = tlb_.get();
        apwc_ = pwc_.get();
        awalker_ = walker_.get();
        al0_ = l0_;
    } else {
        VcpuStack &s = *extra_vcpus_[vcpu - 1];
        atlb_ = s.tlb.get();
        apwc_ = s.pwc.get();
        awalker_ = s.walker.get();
        al0_ = s.l0;
    }
}

TlbHierarchy &
Machine::tlbOf(unsigned vcpu)
{
    return vcpu == 0 ? *tlb_ : *extra_vcpus_[vcpu - 1]->tlb;
}

PageWalkCache &
Machine::pwcOf(unsigned vcpu)
{
    return vcpu == 0 ? *pwc_ : *extra_vcpus_[vcpu - 1]->pwc;
}

bool
Machine::shadowed(ProcId pid) const
{
    return smgr_ && smgr_->hasProcess(pid);
}

ProcId
Machine::spawnProcess()
{
    ProcId pid = guest_os_->createProcess(cfg_.mode);
    if (policy_)
        policy_->onProcessStart(pid);
    if (shsp_)
        shsp_->onProcessStart(pid);
    switchTo(pid);
    return pid;
}

void
Machine::switchTo(ProcId pid)
{
    ap_assert(guest_os_->hasProcess(pid), "switch to dead process");
    if (pid == current_)
        return;
    current_ = pid;
    instructions_ += cfg_.ctxSwitchGuestCycles; // guest-side work
    if (shadowed(pid))
        smgr_->onCtxSwitchIn(pid);
    // Nested/native CR3 writes are direct; with per-asid TLB tagging
    // (PCID-style) no flush is required.
}

WalkResult
Machine::translate(ProcId pid, Addr va, bool write)
{
    for (int attempt = 0; attempt < 32; ++attempt) {
        TranslationContext &ctx = guest_os_->context(pid);
        // The walker hands back its reused scratch result; no handler
        // below re-enters the walker, so the reference stays valid
        // until the retry.
        const WalkResult &r = awalker_->walk(ctx, va, write);
        walk_cycles_ += r.coldRefs * cfg_.walkRefCycles +
                        (r.refs - r.coldRefs) * cfg_.walkRefWarmCycles +
                        r.extraCycles;
        if (r.ok()) {
            last_translate_faults_ = attempt;
            if (r.dirtyTransition && cfg_.hwOptAd && shadowed(pid) &&
                !ctx.fullNested) {
                // Hardware A/D writeback into all three tables costs
                // up to a full nested walk (Section IV).
                walk_cycles_ += cfg_.adWritebackRefs * cfg_.walkRefCycles;
                // Keep the guest table's A/D architecturally coherent.
                auto gm = guest_os_->process(pid).pt->lookup(va);
                if (gm) {
                    Pte *gpte =
                        guest_os_->process(pid).pt->entry(va, gm->depth);
                    gpte->accessed = true;
                    if (write && r.writable)
                        gpte->dirty = true;
                }
            }
            return r;
        }
        switch (r.fault) {
          case WalkFault::ShadowFault: {
            ShadowFillResult fill = smgr_->handleShadowFault(pid, va);
            if (fill == ShadowFillResult::NeedGuestFault) {
                // A true guest fault surfaces through the VMM first.
                vmm_->chargeTrap(TrapKind::GuestFaultMediation);
                if (!guest_os_->handlePageFault(pid, va, write))
                    ap_panic("guest segfault at 0x", std::hex, va);
            }
            break;
          }
          case WalkFault::GuestFault:
            // Nested portions deliver guest faults directly.
            if (!guest_os_->handlePageFault(pid, va, write))
                ap_panic("guest segfault at 0x", std::hex, va);
            break;
          case WalkFault::HostFault:
            if (!vmm_->handleHostFault(r.faultGpa))
                ap_fatal("host memory exhausted (gpa 0x", std::hex,
                         r.faultGpa, ")");
            break;
          case WalkFault::NativeFault:
            if (!guest_os_->handlePageFault(pid, va, write))
                ap_panic("segfault at 0x", std::hex, va);
            break;
          default:
            ap_panic("unexpected walk fault");
        }
    }
    ap_panic("translation did not converge at 0x", std::hex, va);
}

void
Machine::resolveProtection(ProcId pid, Addr va)
{
    ++protFaults;
    AP_DPRINTF(Machine, "proc ", pid, ": protection fixup at 0x",
               std::hex, va);
    ap_assert(guest_os_->vmaWritable(pid, va),
              "workload wrote a read-only mapping at 0x", std::hex, va);

    if (!guest_os_->guestMappingWritable(pid, va)) {
        // Guest-level COW (or a racing unmap): the guest's own fault
        // handler fixes it. Shadow-portion faults pay VMM mediation;
        // faults in nested-mode regions are delivered directly.
        if (shadowed(pid) && !guest_os_->context(pid).fullNested &&
            !smgr_->leafUnderNestedMode(pid, va)) {
            vmm_->chargeTrap(TrapKind::GuestFaultMediation);
        }
        if (!guest_os_->handlePageFault(pid, va, true))
            ap_panic("COW fixup failed at 0x", std::hex, va);
        return;
    }
    if (!guest_os_->isNative()) {
        FrameId gframe = guest_os_->leafFrame(pid, va);
        if (gframe && !vmm_->hostWritable(gframe)) {
            // Host-level COW from content-based sharing. The same exit
            // repairs the shadow leaf (new backing, writability).
            if (!vmm_->breakHostCow(gframe))
                ap_fatal("host memory exhausted during COW break");
            if (shadowed(pid) && !guest_os_->context(pid).fullNested)
                smgr_->refreshLeaf(pid, va);
            else
                coh_->flushPage(va, pid, CoherenceCause::HostRemap);
            return;
        }
    }
    if (shadowed(pid) && !guest_os_->context(pid).fullNested) {
        // Dirty-bit emulation (no A/D hardware optimization).
        smgr_->emulateDirtyWrite(pid, va);
        return;
    }
    // Stale cached translation: drop it and rewalk (local vCPU only —
    // the entry was just probed here).
    atlb_->flushPage(va, pid);
}

void
Machine::verifyAgainstFunctional(ProcId pid, Addr va, FrameId got)
{
    FrameId leaf = guest_os_->leafFrame(pid, va);
    ap_assert(leaf != 0, "verify: no functional mapping at 0x", std::hex,
              va);
    FrameId expected =
        guest_os_->isNative() ? leaf : vmm_->backing(leaf);
    ap_assert(got == expected, "translation mismatch at 0x", std::hex, va,
              ": hw 0x", got, " functional 0x", expected);
}

void
Machine::doAccess(Addr va, bool write, bool instr)
{
    if (!extra_vcpus_.empty()) {
        if (vcpu_quantum_left_ == 0) {
            vcpu_quantum_left_ = cfg_.vcpuQuantumOps;
            unsigned next = active_vcpu_ + 1;
            setActiveVcpu(next == cfg_.numVcpus ? 0 : next);
        }
        --vcpu_quantum_left_;
    }
    instructions_ += cfg_.cyclesPerOp;
    maybeInterval();
    const LastXlat &l0 = al0_[instr];
    if (l0Hit(l0, va, write, atlb_->flushGeneration(current_))) {
        atlb_->countFilteredL1Hit(l0.size, instr);
        return;
    }
    accessSlow(va, write, instr);
}

void
Machine::accessSlow(Addr va, bool write, bool instr)
{
    ProcId pid = current_;

    for (int attempt = 0; attempt < 8; ++attempt) {
        TlbProbeResult hit = atlb_->probe(va, pid, instr);
        if (hit.level != TlbHitLevel::Miss) {
            if (hit.level == TlbHitLevel::L2) {
                // L2 TLB hit latency is identical in every mode and so
                // belongs to base execution time, not translation
                // overhead (the paper's T counts misses only).
                instructions_ += cfg_.l2TlbHitCycles;
                l2HitCyclesStat += cfg_.l2TlbHitCycles;
            }
            if (write && !hit.entry.writable) {
                resolveProtection(pid, va);
                continue;
            }
            if (write && !hit.entry.dirty) {
                // x86 semantics: a store through a cached translation
                // whose leaf dirty bit is clear must re-walk so the
                // hardware can set the in-memory dirty bit. Without
                // this, a write hitting an entry filled by a read
                // would never dirty the page.
                atlb_->flushPage(va, pid);
                continue;
            }
            if (cfg_.verifyTranslations) {
                std::uint64_t frames = pageBytes(hit.size) / kPageBytes;
                verifyAgainstFunctional(
                    pid, va, hit.entry.pfn + (frameOf(va) % frames));
            }
            al0_[instr] = {va, l0Mask(va, pid, instr, hit.size), pid,
                           hit.size, hit.entry.writable, hit.entry.dirty,
                           atlb_->flushGeneration(pid)};
            return;
        }
        ++tlb_misses_;
        std::array<std::uint64_t, kNumTrapKinds> traps_before{};
        if (walk_trace_ && vmm_) {
            for (std::size_t k = 0; k < kNumTrapKinds; ++k)
                traps_before[k] = vmm_->trapCount(static_cast<TrapKind>(k));
        }
        WalkResult r = translate(pid, va, write);
        if (walk_trace_)
            recordWalkTrace(pid, va, write, instr, r, traps_before);
        if (write && !r.writable) {
            resolveProtection(pid, va);
            continue;
        }
        TlbEntry entry;
        entry.pfn = r.hframe;
        entry.writable = r.writable;
        entry.dirty = r.dirty;
        entry.asid = pid;
        atlb_->fill(va, pid, instr, r.size, entry);
        if (cfg_.verifyTranslations) {
            std::uint64_t frames = pageBytes(r.size) / kPageBytes;
            verifyAgainstFunctional(pid, va,
                                    r.hframe + (frameOf(va) % frames));
        }
        al0_[instr] = {va, l0Mask(va, pid, instr, r.size), pid, r.size,
                       r.writable, r.dirty, atlb_->flushGeneration(pid)};
        return;
    }
    ap_panic("access did not converge at 0x", std::hex, va);
}

Addr
Machine::l0Mask(Addr va, ProcId pid, bool instr, PageSize size)
{
    if (cfg_.verifyTranslations)
        return 0;
    return atlb_->l1HitMask(va, pid, instr, size);
}

void
Machine::runAccessBatch(const Addr *vas, const std::uint64_t *write_bits,
                        const std::uint64_t *instr_bits,
                        std::size_t begin, std::size_t count)
{
    if (extra_vcpus_.empty()) {
        runBatchRange(vas, write_bits, instr_bits, begin, count);
        return;
    }
    // Multi-vCPU: replay the deterministic round-robin schedule at
    // quantum granularity. Rotation happens exactly where doAccess
    // would rotate — before the first access of a fresh quantum — and
    // each sub-batch drains on the active vCPU's private stack (TLBs,
    // PWC, walker, L0 filter lanes), so the interleaving and every
    // counter are bit-identical to the per-event path. The L0 lanes
    // stay sound across rotations because remote-vCPU invalidations
    // bump that vCPU's flush generation (coherence shootdowns).
    std::size_t i = begin;
    const std::size_t end = begin + count;
    while (i < end) {
        if (vcpu_quantum_left_ == 0) {
            vcpu_quantum_left_ = cfg_.vcpuQuantumOps;
            unsigned next = active_vcpu_ + 1;
            setActiveVcpu(next == cfg_.numVcpus ? 0 : next);
        }
        const std::size_t m =
            std::min<std::size_t>(end - i, vcpu_quantum_left_);
        runBatchRange(vas, write_bits, instr_bits, i, m);
        vcpu_quantum_left_ -= m;
        i += m;
    }
}

void
Machine::runBatchRange(const Addr *vas, const std::uint64_t *write_bits,
                       const std::uint64_t *instr_bits,
                       std::size_t begin, std::size_t count)
{
    const Cycles op_cycles = cfg_.cyclesPerOp;
    // The flush generation only moves inside maybeInterval() or
    // accessSlow(), so cache it in a register and re-load after
    // either call instead of chasing the pointer every iteration.
    std::uint64_t gen = atlb_->flushGeneration(current_);
    for (std::size_t i = begin; i < begin + count; ++i) {
        const Addr va = vas[i];
        const bool write = (write_bits[i >> 6] >> (i & 63)) & 1;
        const bool instr = (instr_bits[i >> 6] >> (i & 63)) & 1;
        instructions_ += op_cycles;
        if (instructions_ >= next_interval_) {
            maybeInterval();
            gen = atlb_->flushGeneration(current_);
        }
        const LastXlat &l0 = al0_[instr];
        if (l0Hit(l0, va, write, gen)) {
            // Inside the slot's mask, same stream, nothing flushed
            // since: the probe would hit the same (still-MRU) L1 entry
            // and take the same early-outs. Account it without
            // re-touching the arrays.
            atlb_->countFilteredL1Hit(l0.size, instr);
            continue;
        }
        accessSlow(va, write, instr);
        gen = atlb_->flushGeneration(current_);
    }
}

void
Machine::touch(Addr va, bool write, bool instr)
{
    doAccess(va, write, instr);
}

void
Machine::enableWalkTrace(std::size_t capacity)
{
    walk_trace_ = std::make_unique<WalkTraceBuffer>(capacity);
}

void
Machine::recordWalkTrace(
    ProcId pid, Addr va, bool write, bool instr, const WalkResult &r,
    const std::array<std::uint64_t, kNumTrapKinds> &traps_before)
{
    auto clamp8 = [](unsigned v) {
        return static_cast<std::uint8_t>(std::min(v, 255u));
    };
    WalkTraceRecord rec;
    rec.va = va;
    rec.asid = pid;
    rec.mode =
        static_cast<std::uint8_t>(guest_os_->context(pid).mode);
    rec.pageSize = static_cast<std::uint8_t>(r.size);
    if (write)
        rec.flags |= WalkTraceRecord::kFlagWrite;
    if (instr)
        rec.flags |= WalkTraceRecord::kFlagInstr;
    if (r.fullNested)
        rec.flags |= WalkTraceRecord::kFlagFullNested;
    rec.switchDepth = clamp8(r.switchDepth);
    rec.refs = clamp8(r.refs);
    rec.coldRefs = clamp8(r.coldRefs);
    for (std::size_t t = 0; t < kNumWalkTables; ++t)
        rec.refsByTable[t] = clamp8(r.refsByTable[t]);
    rec.pwcStartDepth = clamp8(r.pwcStartDepth);
    rec.ntlbHits = clamp8(r.ntlbHits);
    rec.faults = clamp8(last_translate_faults_);
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            if (vmm_->trapCount(static_cast<TrapKind>(k)) >
                traps_before[k]) {
                rec.trapMask |= std::uint16_t(1u << k);
            }
        }
    }
    walk_trace_->append(rec);
}

void
Machine::maybeInterval()
{
    if (instructions_ < next_interval_)
        return;
    next_interval_ = instructions_ + cfg_.policyIntervalOps;

    std::uint64_t ops = instructions_ - interval_start_ops_;
    if (ops == 0)
        ops = 1;
    Cycles walk_delta = walk_cycles_ - interval_walk_cycles_;

    if (policy_ || shsp_) {
        ShspSample sample;
        sample.walkCycles = walk_delta;
        // SHSP compares against the *recurring* traps shadowing
        // causes. Mode-independent exits (EPT faults, host COW) and
        // one-time rebuild fills would otherwise bias it: the former
        // toward nested forever, the latter into a zap/rebuild
        // oscillation (fills right after a switch are transient).
        if (vmm_) {
            const TrapKind shadow_kinds[] = {
                TrapKind::ShadowPtWrite,  TrapKind::GuestFaultMediation,
                TrapKind::CtxSwitch,      TrapKind::TlbFlush,
                TrapKind::AdEmulation,    TrapKind::Unsync};
            Cycles shadow_cycles = 0;
            for (TrapKind k : shadow_kinds) {
                std::uint64_t now = vmm_->trapCount(k);
                std::uint64_t delta =
                    now - interval_trap_counts_[std::size_t(k)];
                shadow_cycles += delta * cfg_.trapCosts.cost(k);
            }
            sample.trapCycles = shadow_cycles;
        }
        sample.gptWrites = interval_gpt_writes_;
        sample.idealCycles = ops;
        PolicySample psample;
        psample.walkCycles = walk_delta;
        psample.gptWrites = interval_gpt_writes_;
        psample.idealCycles = ops;
        for (ProcId pid : guest_os_->livePids()) {
            if (!shadowed(pid))
                continue;
            if (policy_)
                policy_->onInterval(pid, psample);
            if (shsp_)
                shsp_->onInterval(pid, sample);
        }
    }

    interval_start_ops_ = instructions_;
    interval_walk_cycles_ = walk_cycles_;
    interval_trap_cycles_base_ = vmm_ ? vmm_->trapCycles() : 0;
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            interval_trap_counts_[k] =
                vmm_->trapCount(static_cast<TrapKind>(k));
        }
    }
    interval_gpt_writes_ = 0;
}

// ---------------------------------------------------------------------
// WorkloadHost
// ---------------------------------------------------------------------

Addr
Machine::mmap(Addr length, bool writable, bool file_backed,
              std::uint64_t file_id)
{
    return guest_os_->mmap(current_, length, writable,
                           file_backed ? VmaKind::File : VmaKind::Anon,
                           file_id);
}

bool
Machine::mmapAt(Addr base, Addr length, bool writable, bool file_backed,
                std::uint64_t file_id)
{
    return guest_os_->mmapFixed(current_, base, length, writable,
                                file_backed ? VmaKind::File
                                            : VmaKind::Anon,
                                file_id);
}

void
Machine::munmap(Addr base, Addr length)
{
    guest_os_->munmap(current_, base, length);
}

void
Machine::access(Addr va, bool write)
{
    doAccess(va, write, false);
}

void
Machine::instrFetch(Addr va)
{
    doAccess(va, false, true);
}

void
Machine::compute(std::uint64_t instructions)
{
    instructions_ += instructions;
}

void
Machine::forkTouchExit(std::uint64_t touch_pages)
{
    ProcId parent = current_;
    ProcId child = guest_os_->fork(parent);
    if (!child)
        return;
    switchTo(child);
    for (std::uint64_t i = 0; i < touch_pages; ++i) {
        Addr va = guest_os_->randomMappedVa(child, internal_rng_);
        if (va)
            doAccess(va, true, false);
    }
    switchTo(parent);
    guest_os_->exitProcess(child);
}

void
Machine::yield()
{
    if (!background_) {
        ProcId main = current_;
        background_ = guest_os_->createProcess(cfg_.mode);
        if (policy_)
            policy_->onProcessStart(background_);
        if (shsp_)
            shsp_->onProcessStart(background_);
        switchTo(background_);
        Addr scratch = guest_os_->mmap(background_, 64 * kPageBytes, true,
                                       VmaKind::Anon);
        for (unsigned i = 0; i < 8; ++i)
            doAccess(scratch + i * kPageBytes, true, false);
        switchTo(main);
    }
    ProcId main = current_;
    switchTo(background_);
    // The daemon does a little work (e.g. network stack processing).
    Addr va = guest_os_->randomMappedVa(background_, internal_rng_);
    if (va)
        doAccess(va, false, false);
    compute(50);
    switchTo(main);
}

void
Machine::reclaimTick(std::uint64_t max_pages)
{
    guest_os_->reclaimScan(current_, max_pages);
}

void
Machine::sharePagesScan()
{
    if (!vmm_)
        return;
    std::vector<FrameId> remapped;
    vmm_->sharePages(&remapped);
    if (remapped.empty())
        return;
    if (smgr_)
        smgr_->invalidateByGuestFrames(remapped);
    // Cached translations may hold the retired host frames — on every
    // vCPU.
    coh_->flushAll(CoherenceCause::HostRemap);
}

// ---------------------------------------------------------------------
// Runs and results
// ---------------------------------------------------------------------

RunResult
Machine::snapshot(const std::string &workload_name) const
{
    RunResult r;
    r.workload = workload_name;
    r.mode = cfg_.mode;
    r.pageSize = cfg_.pageSize;
    r.instructions = instructions_;
    r.idealCycles = instructions_ + guest_os_->guestCycles();
    r.walkCycles = walk_cycles_;
    r.trapCycles = vmm_ ? vmm_->trapCycles() : 0;
    r.tlbMisses = tlb_misses_;
    r.traps = vmm_ ? vmm_->trapCountTotal() : 0;
    r.guestPageFaults =
        static_cast<std::uint64_t>(guest_os_->pageFaults.value());
    if (extra_vcpus_.empty()) {
        // Classic single-walker expressions, kept verbatim so a 1-vCPU
        // machine reports bit-identical numbers.
        r.walks = static_cast<std::uint64_t>(walker_->walks.value());
        r.avgWalkRefs = walker_->refsDist.mean();
        r.rawRefsTotal = walker_->refsOkTotal.value();
        double total_walks = 0;
        for (const auto &c : walker_->coverage)
            total_walks += c.value();
        for (int i = 0; i < 6; ++i) {
            r.rawCoverage[i] = walker_->coverage[i].value();
            r.coverage[i] = total_walks
                                ? walker_->coverage[i].value() / total_walks
                                : 0.0;
        }
    } else {
        // Aggregate every vCPU's walker.
        double walks_total = 0, refs_total = 0, total_walks = 0;
        double cov[6] = {0, 0, 0, 0, 0, 0};
        auto accumulate = [&](const Walker &w) {
            walks_total += w.walks.value();
            refs_total += w.refsOkTotal.value();
            for (int i = 0; i < 6; ++i) {
                cov[i] += w.coverage[i].value();
                total_walks += w.coverage[i].value();
            }
        };
        accumulate(*walker_);
        for (const auto &vs : extra_vcpus_)
            accumulate(*vs->walker);
        r.walks = static_cast<std::uint64_t>(walks_total);
        r.rawRefsTotal = refs_total;
        for (int i = 0; i < 6; ++i) {
            r.rawCoverage[i] = cov[i];
            r.coverage[i] = total_walks ? cov[i] / total_walks : 0.0;
        }
        r.avgWalkRefs = total_walks ? refs_total / total_walks : 0.0;
    }
    if (vmm_) {
        for (std::size_t k = 0; k < kNumTrapKinds; ++k)
            r.trapByKind[k] = vmm_->trapCount(static_cast<TrapKind>(k));
    }
    if (range_backend_) {
        r.segmentHits = range_backend_->hitCount();
        r.segmentSpills = range_backend_->spillCount();
        r.segmentInvalidations = range_backend_->invalidationCount();
    }
    r.numVcpus = cfg_.numVcpus;
    r.coherenceCycles = coh_->cycles();
    r.shootdowns = coh_->shootdownCount();
    r.remoteInvalidations = coh_->remoteInvalidationCount();
    for (std::size_t c = 0; c < kNumCoherenceCauses; ++c) {
        r.shootdownsByCause[c] =
            coh_->shootdownsByCause(static_cast<CoherenceCause>(c));
    }
    return r;
}

RunResult
Machine::delta(const RunResult &end, const RunResult &start)
{
    RunResult d = end;
    d.instructions -= start.instructions;
    d.idealCycles -= start.idealCycles;
    d.walkCycles -= start.walkCycles;
    d.trapCycles -= start.trapCycles;
    d.tlbMisses -= start.tlbMisses;
    d.walks -= start.walks;
    d.traps -= start.traps;
    d.guestPageFaults -= start.guestPageFaults;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        d.trapByKind[k] -= start.trapByKind[k];
    d.coherenceCycles -= start.coherenceCycles;
    d.shootdowns -= start.shootdowns;
    d.remoteInvalidations -= start.remoteInvalidations;
    for (std::size_t c = 0; c < kNumCoherenceCauses; ++c)
        d.shootdownsByCause[c] -= start.shootdownsByCause[c];
    d.segmentHits -= start.segmentHits;
    d.segmentSpills -= start.segmentSpills;
    d.segmentInvalidations -= start.segmentInvalidations;
    double walks = 0;
    for (int i = 0; i < 6; ++i) {
        d.rawCoverage[i] = end.rawCoverage[i] - start.rawCoverage[i];
        walks += d.rawCoverage[i];
    }
    for (int i = 0; i < 6; ++i)
        d.coverage[i] = walks ? d.rawCoverage[i] / walks : 0.0;
    d.rawRefsTotal = end.rawRefsTotal - start.rawRefsTotal;
    d.avgWalkRefs = walks ? d.rawRefsTotal / walks : 0.0;
    return d;
}

ProcId
Machine::runWarmup(Workload &workload)
{
    ProcId pid = spawnProcess();
    run_pid_ = pid;
    workload.init(*this);
    // Fast-forward: populate the working set, then run the first part
    // of the workload (TLB/policy warmup) without measuring, then
    // measure the rest — the standard simulation methodology the
    // paper's real-hardware runs do not need but whole-run simulation
    // does.
    workload.warmup(*this);
    std::uint64_t warm_steps =
        workload.selfWarmup()
            ? 0
            : static_cast<std::uint64_t>(workload.params().operations *
                                         cfg_.warmupFraction);
    std::uint64_t steps = 0;
    bool more = true;
    while (more && steps < warm_steps) {
        more = workload.step(*this);
        ++steps;
    }
    warm_exhausted_ = !more;
    return pid;
}

RunResult
Machine::runMeasured(Workload &workload)
{
    RunResult base = snapshot(workload.name());
    // Measurement boundary: from here on the trace and the counters
    // describe the same set of walks, so summarizing the trace
    // reproduces the RunResult's coverage numbers exactly.
    if (walk_trace_)
        walk_trace_->clear();
    bool more = !warm_exhausted_;
    while (more)
        more = workload.step(*this);
    RunResult result = delta(snapshot(workload.name()), base);
    // The delta above already froze the counters; tear the workload
    // process down in bulk rather than simulating its exit.
    guest_os_->reapProcess(run_pid_);
    return result;
}

RunResult
Machine::run(Workload &workload)
{
    runWarmup(workload);
    return runMeasured(workload);
}

void
Machine::saveState(Serializer &s) const
{
    s.putMarker(0x4843414d); // "MACH"
    rng_.saveState(s);
    internal_rng_.saveState(s);
    s.putU32(current_);
    s.putU32(background_);
    s.putU32(run_pid_);
    s.putBool(warm_exhausted_);
    static_assert(std::is_trivially_copyable_v<LastXlat>,
                  "LastXlat must be raw-serializable");
    s.putRaw(&l0_[0], sizeof(l0_));
    s.putU32(last_translate_faults_);
    s.putU64(instructions_);
    s.putU64(walk_cycles_);
    s.putU64(tlb_misses_);
    s.putU64(next_interval_);
    s.putU64(interval_walk_cycles_);
    s.putU64(interval_trap_cycles_base_);
    for (std::uint64_t c : interval_trap_counts_)
        s.putU64(c);
    s.putU64(interval_gpt_writes_);
    s.putU64(interval_start_ops_);

    mem_.saveState(s);
    tlb_->saveState(s);
    pwc_->saveState(s);
    // Extra vCPU stacks and the schedule position; the config digest
    // pins numVcpus, so reader and writer agree on the count.
    if (!extra_vcpus_.empty()) {
        s.putU32(active_vcpu_);
        s.putU64(vcpu_quantum_left_);
        for (const auto &vs : extra_vcpus_) {
            vs->tlb->saveState(s);
            vs->pwc->saveState(s);
            s.putRaw(&vs->l0[0], sizeof(vs->l0));
        }
    }
    coh_->saveState(s);
    ntlb_->saveState(s);
    s.putBool(vmm_ != nullptr);
    if (vmm_)
        vmm_->saveState(s);
    guest_os_->saveState(s);
    s.putBool(smgr_ != nullptr);
    if (smgr_)
        smgr_->saveState(s);
    s.putBool(shsp_ != nullptr);
    if (shsp_)
        shsp_->saveState(s);
    // Backend-private state (segment-register files). The stateless
    // built-in backends write nothing, preserving the classic layout.
    backend_->saveState(s);
    // Stats last: every component above is pure state, the stats tree
    // carries the accumulated counters of all of them.
    saveStatsTree(s);
    s.putMarker(0x444e4546); // "FEND"
}

bool
Machine::restoreState(Deserializer &d)
{
    // Only a newly built machine takes an image: one that has run owns
    // guest and shadow page-table trees whose teardown would free
    // frames of the image. Spawning a process sets current_.
    if (current_ != 0 || instructions_ != 0)
        return false;
    d.checkMarker(0x4843414d);
    rng_.restoreState(d);
    internal_rng_.restoreState(d);
    current_ = d.getU32();
    background_ = d.getU32();
    run_pid_ = d.getU32();
    warm_exhausted_ = d.getBool();
    d.getRaw(&l0_[0], sizeof(l0_));
    last_translate_faults_ = d.getU32();
    instructions_ = d.getU64();
    walk_cycles_ = d.getU64();
    tlb_misses_ = d.getU64();
    next_interval_ = d.getU64();
    interval_walk_cycles_ = d.getU64();
    interval_trap_cycles_base_ = d.getU64();
    for (std::uint64_t &c : interval_trap_counts_)
        c = d.getU64();
    interval_gpt_writes_ = d.getU64();
    interval_start_ops_ = d.getU64();
    if (!d.ok())
        return false;

    // Order matters: memory first (page trees materialize), then the
    // structures that hold frame ids into it, then the guest OS (which
    // adopts its page-table roots), then the shadow manager (which
    // resolves guest tables through the restored guest OS).
    mem_.restoreState(d);
    tlb_->restoreState(d);
    pwc_->restoreState(d);
    if (!extra_vcpus_.empty()) {
        unsigned active = d.getU32();
        if (active >= cfg_.numVcpus)
            return false;
        vcpu_quantum_left_ = d.getU64();
        for (auto &vs : extra_vcpus_) {
            vs->tlb->restoreState(d);
            vs->pwc->restoreState(d);
            d.getRaw(&vs->l0[0], sizeof(vs->l0));
        }
        setActiveVcpu(active);
    }
    coh_->restoreState(d);
    ntlb_->restoreState(d);
    if (d.getBool() != (vmm_ != nullptr))
        return false;
    if (vmm_)
        vmm_->restoreState(d);
    guest_os_->restoreState(d);
    if (d.getBool() != (smgr_ != nullptr))
        return false;
    if (smgr_) {
        smgr_->restoreState(d, [this](ProcId pid) -> RadixPageTable * {
            return guest_os_->hasProcess(pid)
                       ? guest_os_->process(pid).pt.get()
                       : nullptr;
        });
    }
    if (d.getBool() != (shsp_ != nullptr))
        return false;
    if (shsp_)
        shsp_->restoreState(d);
    backend_->restoreState(d);
    restoreStatsTree(d);
    d.checkMarker(0x444e4546);
    return d.ok();
}

} // namespace ap
