/**
 * @file
 * Server consolidation as one workload: several Table V workloads run
 * as separate guest processes on one machine, interleaved round-robin
 * in fixed quanta. This is the scenario the paper's introduction
 * motivates: frequent guest context switches are where the sptr cache
 * and agile's shadow-root handling matter.
 *
 * It is an ordinary Workload, so Machine::run, recordRun and the
 * CellEngine run it like any other. Its process switches are host
 * calls (spawnProcess, switchTo) that a TraceRecorder records and a
 * replay applies. The interleaving is a pure function of the slots,
 * their params and the quantum, so one recorded stream drives every
 * MMU mode.
 */

#ifndef AGILEPAGING_WORKLOADS_CONSOLIDATED_HH
#define AGILEPAGING_WORKLOADS_CONSOLIDATED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace ap
{

class ConsolidatedWorkload : public Workload
{
  public:
    /**
     * @param slots the workloads, one guest process each, scheduled in
     *        this order
     * @param quantum slot steps per scheduling quantum (> 0)
     * @param warmup_fraction the cell config's warmupFraction: each
     *        slot fast-forwards this fraction of its operations before
     *        the measurement boundary
     */
    ConsolidatedWorkload(std::vector<std::unique_ptr<Workload>> slots,
                         std::uint64_t quantum, double warmup_fraction);

    /** "consolidated:" plus each slot's name and params and the
     *  quantum: everything the stream depends on besides the config,
     *  so it can name the cell in the caches. */
    std::string name() const override;

    /**
     * Spawn, init and populate each slot in turn. Slot 0 runs in the
     * process the host started the workload in.
     */
    void init(WorkloadHost &host) override;

    /** The interleaved fast-forward: quanta of each slot until every
     *  slot has run its warmup fraction. */
    void warmup(WorkloadHost &host) override;

    /** One quantum of the next unfinished slot (a fresh round-robin
     *  from slot 0 after warmup). @return false once all are done. */
    bool step(WorkloadHost &host) override;

    /** warmup() is the whole fast-forward. */
    bool selfWarmup() const override { return true; }

    /** Slot @p i's guest process (valid after init()). */
    ProcId pid(std::size_t i) const { return slots_[i].pid; }
    /** Steps slot @p i has executed. */
    std::uint64_t steps(std::size_t i) const { return slots_[i].steps; }

  private:
    struct Slot
    {
        std::unique_ptr<Workload> workload;
        ProcId pid = 0;
        std::uint64_t steps = 0;
        std::uint64_t warmSteps = 0;
        bool more = true;
    };

    /** Switch to @p slot and run up to one quantum of it, stopping
     *  early when it finishes or reaches @p limit steps. */
    void runQuantum(WorkloadHost &host, Slot &slot, std::uint64_t limit);

    std::vector<Slot> slots_;
    std::uint64_t quantum_;
    double warmup_fraction_;
    /** The slot the next measured quantum starts looking from. */
    std::size_t next_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_WORKLOADS_CONSOLIDATED_HH
