/**
 * @file
 * Compiled trace implementation: compile/decompile, batched replay,
 * and on-disk format v2.
 */

#include "trace/compiled_trace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "base/logging.hh"
#include "trace/buffer_pool.hh"
#include "sim/machine.hh"

namespace ap
{

namespace
{
constexpr char kMagicV2[8] = {'A', 'P', 'T', 'R', 'A', 'C', 'E', '2'};

template <typename T>
void
put(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
bool
get(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return bool(is);
}

std::uint64_t
bitmapWords(std::uint64_t n)
{
    return (n + 63) / 64;
}
} // namespace

CompiledTrace
compileTrace(const Trace &trace)
{
    CompiledTrace c;
    c.workload = trace.workload;
    c.seed = trace.seed;
    c.eventCount = trace.events.size();
    c.warmupEvents =
        std::min<std::uint64_t>(trace.warmupEvents, c.eventCount);

    std::uint64_t n_access = 0;
    for (const TraceEvent &e : trace.events) {
        if (e.kind == TraceEvent::Kind::Access ||
            e.kind == TraceEvent::Kind::InstrFetch) {
            ++n_access;
        }
    }
    c.vas.reserve(n_access);
    c.writeBits.assign(bitmapWords(n_access), 0);
    c.instrBits.assign(bitmapWords(n_access), 0);

    std::uint64_t run_len = 0;
    auto flushRun = [&] {
        if (run_len) {
            c.ops.push_back({TraceEvent::Kind::Access, run_len});
            run_len = 0;
        }
    };

    for (std::uint64_t i = 0; i < c.eventCount; ++i) {
        if (i == c.warmupEvents) {
            // Runs never straddle the measurement boundary.
            flushRun();
            c.warmupOps = c.ops.size();
        }
        const TraceEvent &e = trace.events[i];
        if (e.kind == TraceEvent::Kind::Access ||
            e.kind == TraceEvent::Kind::InstrFetch) {
            std::uint64_t idx = c.vas.size();
            c.vas.push_back(e.addr);
            if (e.kind == TraceEvent::Kind::Access && e.flag)
                setBit(c.writeBits, idx);
            if (e.kind == TraceEvent::Kind::InstrFetch)
                setBit(c.instrBits, idx);
            if (++run_len == kMaxRunEvents)
                flushRun();
        } else {
            flushRun();
            c.ops.push_back({e.kind, c.ctrl.size()});
            c.ctrl.push_back(e);
        }
    }
    flushRun();
    if (c.warmupEvents >= c.eventCount)
        c.warmupOps = c.ops.size();
    return c;
}

Trace
decompileTrace(const CompiledTrace &compiled)
{
    Trace t;
    t.workload = compiled.workload;
    t.seed = compiled.seed;
    t.warmupEvents = compiled.warmupEvents;
    t.events.reserve(compiled.eventCount);
    std::uint64_t cursor = 0;
    for (const CompiledOp &op : compiled.ops) {
        if (op.kind == TraceEvent::Kind::Access) {
            for (std::uint64_t j = 0; j < op.n; ++j, ++cursor) {
                TraceEvent e;
                if (testBit(compiled.instrBits, cursor)) {
                    e.kind = TraceEvent::Kind::InstrFetch;
                } else {
                    e.kind = TraceEvent::Kind::Access;
                    e.flag = testBit(compiled.writeBits, cursor);
                }
                e.addr = compiled.vas[cursor];
                t.events.push_back(e);
            }
        } else {
            t.events.push_back(compiled.ctrl[op.n]);
        }
    }
    return t;
}

// ---------------------------------------------------------------------
// Batched replay
// ---------------------------------------------------------------------

BatchReplayWorkload::BatchReplayWorkload(
    std::shared_ptr<const CompiledTrace> trace, bool batched)
    : Workload(WorkloadParams{}), trace_(std::move(trace)),
      batched_(batched)
{
    ap_assert(trace_ != nullptr, "null compiled trace");
    params_.seed = trace_->seed;
    params_.operations = trace_->eventCount > trace_->warmupEvents
                             ? trace_->eventCount - trace_->warmupEvents
                             : 0;
}

std::string
BatchReplayWorkload::name() const
{
    return "replay:" + trace_->workload;
}

void
BatchReplayWorkload::init(WorkloadHost &host)
{
    next_op_ = 0;
    access_cursor_ = 0;
    machine_ = batched_ ? dynamic_cast<Machine *>(&host) : nullptr;
}

void
BatchReplayWorkload::resumeAtBoundary(Machine &machine)
{
    machine_ = batched_ ? &machine : nullptr;
    next_op_ = trace_->warmupOps;
    access_cursor_ = 0;
    for (std::uint64_t o = 0; o < trace_->warmupOps; ++o) {
        if (trace_->ops[o].kind == TraceEvent::Kind::Access)
            access_cursor_ += trace_->ops[o].n;
    }
}

void
BatchReplayWorkload::warmup(WorkloadHost &host)
{
    while (next_op_ < trace_->warmupOps)
        applyOp(host);
}

bool
BatchReplayWorkload::step(WorkloadHost &host)
{
    if (next_op_ >= trace_->ops.size())
        return false;
    applyOp(host);
    return next_op_ < trace_->ops.size();
}

void
BatchReplayWorkload::applyOp(WorkloadHost &host)
{
    const CompiledOp &op = trace_->ops[next_op_++];
    if (op.kind == TraceEvent::Kind::Access) {
        const std::uint64_t begin = access_cursor_;
        access_cursor_ += op.n;
        if (machine_) {
            machine_->runAccessBatch(trace_->vas.data(),
                                     trace_->writeBits.data(),
                                     trace_->instrBits.data(), begin,
                                     op.n);
            return;
        }
        for (std::uint64_t i = begin; i < begin + op.n; ++i) {
            if (testBit(trace_->instrBits, i))
                host.instrFetch(trace_->vas[i]);
            else
                host.access(trace_->vas[i],
                            testBit(trace_->writeBits, i));
        }
        return;
    }
    applyTraceEvent(host, trace_->ctrl[op.n]);
}

// ---------------------------------------------------------------------
// On-disk format v2
// ---------------------------------------------------------------------

bool
writeCompiledTrace(const CompiledTrace &trace, std::ostream &os)
{
    os.write(kMagicV2, sizeof(kMagicV2));
    std::uint64_t name_len = trace.workload.size();
    put(os, name_len);
    os.write(trace.workload.data(),
             static_cast<std::streamsize>(name_len));
    put(os, trace.seed);
    put(os, trace.warmupEvents);
    put(os, trace.warmupOps);
    put(os, trace.eventCount);
    std::uint64_t op_count = trace.ops.size();
    put(os, op_count);

    std::uint64_t cursor = 0;
    // Repack scratch comes from the per-thread pool: its capacity
    // survives across cells instead of being re-grown per write.
    PooledWords wloan, iloan;
    std::vector<std::uint64_t> &wbuf = *wloan, &ibuf = *iloan;
    for (const CompiledOp &op : trace.ops) {
        put(os, static_cast<std::uint8_t>(op.kind));
        if (op.kind == TraceEvent::Kind::Access) {
            put(os, op.n);
            os.write(reinterpret_cast<const char *>(&trace.vas[cursor]),
                     static_cast<std::streamsize>(op.n * sizeof(Addr)));
            // Bitmaps are re-packed per run (bit j = event j of this
            // run), so each run decodes on its own.
            wbuf.assign(bitmapWords(op.n), 0);
            ibuf.assign(bitmapWords(op.n), 0);
            for (std::uint64_t j = 0; j < op.n; ++j) {
                if (testBit(trace.writeBits, cursor + j))
                    setBit(wbuf, j);
                if (testBit(trace.instrBits, cursor + j))
                    setBit(ibuf, j);
            }
            os.write(reinterpret_cast<const char *>(wbuf.data()),
                     static_cast<std::streamsize>(wbuf.size() * 8));
            os.write(reinterpret_cast<const char *>(ibuf.data()),
                     static_cast<std::streamsize>(ibuf.size() * 8));
            cursor += op.n;
        } else {
            const TraceEvent &e = trace.ctrl[op.n];
            put(os, e.addr);
            put(os, e.arg);
            put(os, e.fileId);
            std::uint8_t flags =
                (e.flag ? 1 : 0) | (e.fileBacked ? 2 : 0);
            put(os, flags);
        }
    }
    return bool(os);
}

bool
readCompiledTrace(std::istream &is, CompiledTrace &out)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
        return false;
    std::uint64_t name_len = 0;
    if (!get(is, name_len) || name_len > (1u << 20))
        return false;
    out.workload.resize(name_len);
    is.read(out.workload.data(), static_cast<std::streamsize>(name_len));
    std::uint64_t op_count = 0;
    if (!get(is, out.seed) || !get(is, out.warmupEvents) ||
        !get(is, out.warmupOps) || !get(is, out.eventCount) ||
        !get(is, op_count)) {
        return false;
    }

    out.vas.clear();
    out.writeBits.clear();
    out.instrBits.clear();
    out.ops.clear();
    out.ctrl.clear();
    // No reserve on op_count: it is unvalidated, and the loop below
    // stops at the first op the stream does not hold.

    PooledWords wloan, iloan;
    std::vector<std::uint64_t> &wbuf = *wloan, &ibuf = *iloan;
    for (std::uint64_t o = 0; o < op_count; ++o) {
        std::uint8_t kind = 0;
        if (!get(is, kind) ||
            kind > static_cast<std::uint8_t>(TraceEvent::kLastKind)) {
            return false;
        }
        if (static_cast<TraceEvent::Kind>(kind) ==
            TraceEvent::Kind::Access) {
            std::uint64_t n = 0;
            if (!get(is, n) || n == 0 || n > kMaxRunEvents)
                return false;
            std::uint64_t base = out.vas.size();
            out.vas.resize(base + n);
            is.read(reinterpret_cast<char *>(&out.vas[base]),
                    static_cast<std::streamsize>(n * sizeof(Addr)));
            wbuf.assign(bitmapWords(n), 0);
            ibuf.assign(bitmapWords(n), 0);
            is.read(reinterpret_cast<char *>(wbuf.data()),
                    static_cast<std::streamsize>(wbuf.size() * 8));
            is.read(reinterpret_cast<char *>(ibuf.data()),
                    static_cast<std::streamsize>(ibuf.size() * 8));
            if (!is)
                return false;
            out.writeBits.resize(bitmapWords(base + n), 0);
            out.instrBits.resize(bitmapWords(base + n), 0);
            for (std::uint64_t j = 0; j < n; ++j) {
                if (testBit(wbuf, j))
                    setBit(out.writeBits, base + j);
                if (testBit(ibuf, j))
                    setBit(out.instrBits, base + j);
            }
            out.ops.push_back({TraceEvent::Kind::Access, n});
        } else {
            TraceEvent e;
            e.kind = static_cast<TraceEvent::Kind>(kind);
            std::uint8_t flags = 0;
            if (!get(is, e.addr) || !get(is, e.arg) ||
                !get(is, e.fileId) || !get(is, flags)) {
                return false;
            }
            e.flag = flags & 1;
            e.fileBacked = flags & 2;
            out.ops.push_back({e.kind, out.ctrl.size()});
            out.ctrl.push_back(e);
        }
    }
    // The header counts must describe the ops just read: replay and
    // resumeAtBoundary index by them.
    if (out.warmupOps > out.ops.size() ||
        out.eventCount != out.vas.size() + out.ctrl.size())
        return false;
    std::uint64_t warm_events = 0;
    for (std::uint64_t o = 0; o < out.warmupOps; ++o) {
        const CompiledOp &op = out.ops[o];
        warm_events += op.kind == TraceEvent::Kind::Access ? op.n : 1;
    }
    return warm_events == out.warmupEvents;
}

bool
writeCompiledTraceFile(const CompiledTrace &trace,
                       const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeCompiledTrace(trace, os);
}

bool
readCompiledTraceFile(const std::string &path, CompiledTrace &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readCompiledTrace(is, out);
}

} // namespace ap
