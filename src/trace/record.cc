/**
 * @file
 * Recording-run implementation.
 */

#include "trace/record.hh"

#include "trace/buffer_pool.hh"

namespace ap
{

namespace
{

/**
 * Routes an inner workload's host calls through a TraceRecorder, so
 * Machine::runWarmup/runMeasured (which pass the machine itself as the
 * host) record the stream as a side effect.
 */
class RecordingWorkload : public Workload
{
  public:
    RecordingWorkload(Workload &inner, TraceRecorder &rec)
        : Workload(inner.params()), inner_(inner), rec_(rec)
    {}

    std::string name() const override { return inner_.name(); }
    bool selfWarmup() const override { return inner_.selfWarmup(); }
    void init(WorkloadHost &) override { inner_.init(rec_); }
    void warmup(WorkloadHost &) override { inner_.warmup(rec_); }
    bool step(WorkloadHost &) override { return inner_.step(rec_); }

  private:
    Workload &inner_;
    TraceRecorder &rec_;
};

} // namespace

RecordedRun
recordRun(Machine &machine, Workload &workload)
{
    return recordRun(machine, workload, {});
}

RecordedRun
recordRun(Machine &machine, Workload &workload,
          const std::function<void()> &at_boundary)
{
    TraceRecorder recorder(machine);
    // The event vector's backing store is recycled across recording
    // runs (recycleTrace returns it); one event per op plus warmup
    // touches, over-reserved by half so a first-use buffer never pays
    // a doubling realloc either.
    recorder.trace().events = TraceBufferPool::instance().takeEvents();
    recorder.trace().events.reserve(workload.params().operations +
                                    workload.params().operations / 2 +
                                    4096);
    RecordingWorkload recording(workload, recorder);
    machine.runWarmup(recording);
    recorder.markWarmupBoundary();
    if (at_boundary)
        at_boundary();
    RecordedRun out;
    out.result = machine.runMeasured(recording);
    out.trace = std::move(recorder.trace());
    out.trace.workload = workload.name();
    out.trace.seed = workload.params().seed;
    return out;
}

} // namespace ap
