/**
 * @file
 * Trace serialization and replay implementation.
 */

#include "trace/trace.hh"

#include <fstream>

#include "trace/compiled_trace.hh"

namespace ap
{

TraceReplayWorkload::TraceReplayWorkload(Trace trace)
    : Workload(WorkloadParams{}), trace_(std::move(trace))
{
    params_.seed = trace_.seed;
    params_.operations =
        trace_.events.size() > trace_.warmupEvents
            ? trace_.events.size() - trace_.warmupEvents
            : 0;
}

std::string
TraceReplayWorkload::name() const
{
    return "replay:" + trace_.workload;
}

void
TraceReplayWorkload::init(WorkloadHost &host)
{
    (void)host;
    next_ = 0;
}

void
TraceReplayWorkload::warmup(WorkloadHost &host)
{
    while (next_ < trace_.warmupEvents && next_ < trace_.events.size()) {
        applyTraceEvent(host, trace_.events[next_]);
        ++next_;
    }
}

bool
TraceReplayWorkload::step(WorkloadHost &host)
{
    if (next_ >= trace_.events.size())
        return false;
    applyTraceEvent(host, trace_.events[next_]);
    ++next_;
    return next_ < trace_.events.size();
}

bool
writeTrace(const Trace &trace, std::ostream &os)
{
    return writeCompiledTrace(compileTrace(trace), os);
}

bool
readTrace(std::istream &is, Trace &out)
{
    CompiledTrace compiled;
    if (!readCompiledTrace(is, compiled))
        return false;
    out = decompileTrace(compiled);
    return true;
}

bool
writeTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(trace, os);
}

bool
readTraceFile(const std::string &path, Trace &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readTrace(is, out);
}

} // namespace ap
