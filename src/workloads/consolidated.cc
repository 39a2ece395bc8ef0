/**
 * @file
 * Consolidated workload implementation, and the default (panicking)
 * multi-process host calls.
 */

#include "workloads/consolidated.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace ap
{

ProcId
WorkloadHost::spawnProcess()
{
    ap_panic("this host cannot run multi-process workloads");
}

void
WorkloadHost::switchTo(ProcId)
{
    ap_panic("this host cannot run multi-process workloads");
}

ProcId
WorkloadHost::currentProcess() const
{
    ap_panic("this host cannot run multi-process workloads");
}

namespace
{

WorkloadParams
sumParams(const std::vector<std::unique_ptr<Workload>> &slots)
{
    ap_assert(!slots.empty(), "nothing to consolidate");
    WorkloadParams p = slots[0]->params();
    p.operations = 0;
    p.footprintBytes = 0;
    for (const auto &w : slots) {
        p.operations += w->params().operations;
        p.footprintBytes += w->params().footprintBytes;
    }
    return p;
}

} // namespace

ConsolidatedWorkload::ConsolidatedWorkload(
    std::vector<std::unique_ptr<Workload>> slots, std::uint64_t quantum,
    double warmup_fraction)
    : Workload(sumParams(slots)), quantum_(quantum),
      warmup_fraction_(warmup_fraction)
{
    ap_assert(quantum > 0, "zero scheduling quantum");
    for (auto &w : slots) {
        ap_assert(w != nullptr, "null consolidated slot");
        slots_.push_back(Slot{std::move(w)});
    }
}

std::string
ConsolidatedWorkload::name() const
{
    std::string n = "consolidated:";
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const WorkloadParams &p = slots_[i].workload->params();
        n += (i ? "+" : "") + slots_[i].workload->name() + "/o" +
             std::to_string(p.operations) + "/s" +
             std::to_string(p.seed) + "/f" +
             std::to_string(p.footprintBytes);
    }
    return n + "@q" + std::to_string(quantum_);
}

void
ConsolidatedWorkload::init(WorkloadHost &host)
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &slot = slots_[i];
        slot.pid = i == 0 ? host.currentProcess() : host.spawnProcess();
        slot.steps = 0;
        slot.more = true;
        slot.workload->init(host);
        slot.workload->warmup(host);
        slot.warmSteps =
            slot.workload->selfWarmup()
                ? 0
                : static_cast<std::uint64_t>(
                      slot.workload->params().operations *
                      warmup_fraction_);
    }
    next_ = 0;
}

void
ConsolidatedWorkload::runQuantum(WorkloadHost &host, Slot &slot,
                                 std::uint64_t limit)
{
    host.switchTo(slot.pid);
    for (std::uint64_t i = 0;
         i < quantum_ && slot.more && slot.steps < limit;
         ++i, ++slot.steps) {
        slot.more = slot.workload->step(host);
    }
}

void
ConsolidatedWorkload::warmup(WorkloadHost &host)
{
    // Interleaved like the measured phase, so the policies see the
    // consolidation pattern they will run under.
    bool warming = true;
    while (warming) {
        warming = false;
        for (Slot &slot : slots_) {
            if (!slot.more || slot.steps >= slot.warmSteps)
                continue;
            runQuantum(host, slot, slot.warmSteps);
            warming |= slot.more && slot.steps < slot.warmSteps;
        }
    }
}

bool
ConsolidatedWorkload::step(WorkloadHost &host)
{
    for (std::size_t tried = 0; tried < slots_.size(); ++tried) {
        Slot &slot = slots_[next_];
        next_ = (next_ + 1) % slots_.size();
        if (slot.more) {
            runQuantum(host, slot,
                       std::numeric_limits<std::uint64_t>::max());
            break;
        }
    }
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot &slot) { return slot.more; });
}

} // namespace ap
