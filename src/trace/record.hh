/**
 * @file
 * Recording runs: a workload's event stream captured while it runs on
 * a machine under the machine's own measurement protocol.
 */

#ifndef AGILEPAGING_TRACE_RECORD_HH
#define AGILEPAGING_TRACE_RECORD_HH

#include <functional>

#include "sim/machine.hh"
#include "trace/trace.hh"

namespace ap
{

/** A recorded run: the trace plus the measurements of the recording
 *  run itself. */
struct RecordedRun
{
    Trace trace;
    RunResult result;
};

/**
 * Run @p workload on @p machine exactly as Machine::run would
 * (populate warmup, fast-forward fraction, measured remainder) while
 * capturing every WorkloadHost call into a trace. Replaying the trace
 * on an identically configured machine reproduces the run result.
 */
RecordedRun recordRun(Machine &machine, Workload &workload);

/** recordRun, calling @p at_boundary on the machine at the
 *  measurement boundary (e.g. to capture a snapshot there). */
RecordedRun recordRun(Machine &machine, Workload &workload,
                      const std::function<void()> &at_boundary);

} // namespace ap

#endif // AGILEPAGING_TRACE_RECORD_HH
