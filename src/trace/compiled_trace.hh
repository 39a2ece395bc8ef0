/**
 * @file
 * Compiled (RLE/SoA) trace form and the batched replay workload.
 *
 * A recorded Trace is one 40-byte TraceEvent per operation, replayed
 * through per-event virtual dispatch. For the evaluation matrix that
 * is wasteful twice over: the overwhelming majority of events are
 * plain accesses, and the same trace is replayed by many cells. The
 * compiled form run-length-encodes the stream into access *runs* —
 * contiguous VA arrays with write/instr bitmaps — interleaved with the
 * rare control events, so a replay can hand whole runs to
 * Machine::runAccessBatch and the on-disk format v2 can store ~8.25
 * bytes per access instead of 40.
 */

#ifndef AGILEPAGING_TRACE_COMPILED_TRACE_HH
#define AGILEPAGING_TRACE_COMPILED_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace ap
{

class Machine;

/**
 * Upper bound on events per access run. Splitting long runs (the
 * populate warmup alone is millions of consecutive accesses) bounds
 * the per-run bitmap scratch of the file writer and reader, and what
 * the reader allocates on a run's length before its bytes arrive
 * (~576 KiB), while keeping per-run overhead negligible.
 */
constexpr std::uint64_t kMaxRunEvents = 64 * 1024;

/**
 * One compiled op: either a run of @p n consecutive accesses (data
 * and instruction fetches folded together, classified by the bitmaps)
 * or a single control event, where @p n indexes CompiledTrace::ctrl.
 */
struct CompiledOp
{
    TraceEvent::Kind kind = TraceEvent::Kind::Access;
    std::uint64_t n = 0;
};

/** Bit @p i of a packed bitmap. */
inline bool
testBit(const std::vector<std::uint64_t> &bits, std::uint64_t i)
{
    return (bits[i >> 6] >> (i & 63)) & 1;
}

/** Set bit @p i of a packed bitmap (must already be sized). */
inline void
setBit(std::vector<std::uint64_t> &bits, std::uint64_t i)
{
    bits[i >> 6] |= std::uint64_t(1) << (i & 63);
}

/**
 * A trace compiled into SoA access arrays plus control events.
 * Access runs never straddle the warmup boundary, so the boundary is
 * always between ops. Immutable once built; cells share one instance
 * through shared_ptr<const CompiledTrace>.
 */
struct CompiledTrace
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Total events (accesses + control) in the original stream. */
    std::uint64_t eventCount = 0;
    /** Events before the measurement boundary. */
    std::uint64_t warmupEvents = 0;
    /** Ops before the measurement boundary (boundary-aligned). */
    std::uint64_t warmupOps = 0;

    /** Access VAs, in stream order across all runs. */
    std::vector<Addr> vas;
    /** Bit i set: vas[i] is a write (always clear for fetches). */
    std::vector<std::uint64_t> writeBits;
    /** Bit i set: vas[i] is an instruction fetch. */
    std::vector<std::uint64_t> instrBits;

    std::vector<CompiledOp> ops;
    /** Non-access events, indexed by CompiledOp::n. */
    std::vector<TraceEvent> ctrl;
};

/** Compile an event-list trace into the RLE/SoA form. */
CompiledTrace compileTrace(const Trace &trace);

/** Expand back into the event-list form (exact inverse). */
Trace decompileTrace(const CompiledTrace &compiled);

/**
 * Replays a compiled trace. When the host is a Machine (and
 * @p batched), access runs drain through Machine::runAccessBatch —
 * the fast path. Any other WorkloadHost gets a per-event fallback
 * with identical semantics.
 */
class BatchReplayWorkload : public Workload
{
  public:
    explicit BatchReplayWorkload(
        std::shared_ptr<const CompiledTrace> trace, bool batched = true);

    std::string name() const override;
    void init(WorkloadHost &host) override;
    void warmup(WorkloadHost &host) override;
    bool step(WorkloadHost &host) override;
    /** The recorded warmup boundary is authoritative. */
    bool selfWarmup() const override { return true; }

    /**
     * Position the replay at the measurement boundary of @p machine
     * without replaying anything — the counterpart of restoring a
     * warm-state snapshot into the machine. After this, driving
     * Machine::runMeasured(*this) plays exactly the measured ops.
     */
    void resumeAtBoundary(Machine &machine);

  private:
    void applyOp(WorkloadHost &host);

    std::shared_ptr<const CompiledTrace> trace_;
    bool batched_;
    /** Non-null after init() when the host supports batching. */
    Machine *machine_ = nullptr;
    std::uint64_t next_op_ = 0;
    /** Index into the access arrays of the next unplayed access. */
    std::uint64_t access_cursor_ = 0;
};

/** Serialize in on-disk format v2 ("APTRACE2"). @return success. */
bool writeCompiledTrace(const CompiledTrace &trace, std::ostream &os);
bool writeCompiledTraceFile(const CompiledTrace &trace,
                            const std::string &path);

/**
 * Deserialize format v2, the only trace decoder. Counts in the header
 * are checked against the ops actually read, so a truncated or
 * hostile file returns false rather than allocating on its word.
 * @return false on any malformed input.
 */
bool readCompiledTrace(std::istream &is, CompiledTrace &out);
bool readCompiledTraceFile(const std::string &path, CompiledTrace &out);

} // namespace ap

#endif // AGILEPAGING_TRACE_COMPILED_TRACE_HH
