/**
 * @file
 * Workload trace recording and replay.
 *
 * The paper's evaluation is built on traces: trace-cmd captured guest
 * page-table updates and BadgerTrap captured TLB misses (Section VI).
 * This module provides the equivalent artifact for the simulator: a
 * TraceRecorder captures the full event stream a workload issues
 * through the WorkloadHost interface, writeTrace/readTrace persist
 * it, and TraceReplayWorkload plays a captured stream back as a
 * first-class workload — so one captured run can be re-simulated under
 * every technique, or shipped as a reproducible input.
 */

#ifndef AGILEPAGING_TRACE_TRACE_HH
#define AGILEPAGING_TRACE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace ap
{

/** One recorded WorkloadHost call. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        Access,
        InstrFetch,
        Mmap,
        MmapAt,
        Munmap,
        Compute,
        ForkTouchExit,
        Yield,
        ReclaimTick,
        SharePages,
        /** arg = the pid the recording host handed out. */
        SpawnProcess,
        /** arg = the pid switched to. */
        SwitchTo,
    };
    /** The last kind; readers reject a kind byte past it. */
    static constexpr Kind kLastKind = Kind::SwitchTo;

    Kind kind = Kind::Access;
    /** Access/fetch VA; mmap/munmap base. */
    Addr addr = 0;
    /** mmap/munmap length; compute instructions; fork touch pages;
     *  reclaim max pages. */
    std::uint64_t arg = 0;
    /** mmap file id. */
    std::uint64_t fileId = 0;
    /** Access: write flag; mmap: writable flag. */
    bool flag = false;
    /** Mmap/MmapAt: file-backed. */
    bool fileBacked = false;

    bool
    operator==(const TraceEvent &o) const
    {
        return kind == o.kind && addr == o.addr && arg == o.arg &&
               fileId == o.fileId && flag == o.flag &&
               fileBacked == o.fileBacked;
    }
};

/** An in-memory trace. */
struct Trace
{
    /** Name of the traced workload (metadata). */
    std::string workload;
    std::uint64_t seed = 0;
    std::vector<TraceEvent> events;
    /** Index of the first post-warmup event (replay measurement
     *  boundary). */
    std::uint64_t warmupEvents = 0;
};

/**
 * Apply one recorded event to a host. This is the replay primitive
 * shared by TraceReplayWorkload and the differential oracle (which
 * lock-steps several machines through the same event and therefore
 * cannot use the Workload interface).
 */
inline void
applyTraceEvent(WorkloadHost &host, const TraceEvent &e)
{
    switch (e.kind) {
      case TraceEvent::Kind::Access:
        host.access(e.addr, e.flag);
        break;
      case TraceEvent::Kind::InstrFetch:
        host.instrFetch(e.addr);
        break;
      case TraceEvent::Kind::Mmap:
      case TraceEvent::Kind::MmapAt:
        host.mmapAt(e.addr, e.arg, e.flag, e.fileBacked, e.fileId);
        break;
      case TraceEvent::Kind::Munmap:
        host.munmap(e.addr, e.arg);
        break;
      case TraceEvent::Kind::Compute:
        host.compute(e.arg);
        break;
      case TraceEvent::Kind::ForkTouchExit:
        host.forkTouchExit(e.arg);
        break;
      case TraceEvent::Kind::Yield:
        host.yield();
        break;
      case TraceEvent::Kind::ReclaimTick:
        host.reclaimTick(e.arg);
        break;
      case TraceEvent::Kind::SharePages:
        host.sharePagesScan();
        break;
      case TraceEvent::Kind::SpawnProcess:
        // Pids are handed out in creation order, so a replay from the
        // same starting state gets the recorded pid back.
        host.spawnProcess();
        break;
      case TraceEvent::Kind::SwitchTo:
        host.switchTo(static_cast<ProcId>(e.arg));
        break;
    }
}

/**
 * WorkloadHost decorator: forwards every call to an inner host while
 * appending it to a trace.
 */
class TraceRecorder : public WorkloadHost
{
  public:
    explicit TraceRecorder(WorkloadHost &inner) : inner_(inner) {}

    /** Mark everything recorded so far as warmup. */
    void markWarmupBoundary() { trace_.warmupEvents = trace_.events.size(); }

    Trace &trace() { return trace_; }
    const Trace &trace() const { return trace_; }

    Addr
    mmap(Addr length, bool writable, bool file_backed,
         std::uint64_t file_id) override
    {
        Addr base = inner_.mmap(length, writable, file_backed, file_id);
        TraceEvent e;
        // Record the *resolved* base so replay is address-exact.
        e.kind = TraceEvent::Kind::MmapAt;
        e.addr = base;
        e.arg = length;
        e.fileId = file_id;
        e.flag = writable;
        e.fileBacked = file_backed;
        trace_.events.push_back(e);
        return base;
    }

    bool
    mmapAt(Addr base, Addr length, bool writable, bool file_backed,
           std::uint64_t file_id) override
    {
        bool ok =
            inner_.mmapAt(base, length, writable, file_backed, file_id);
        if (ok) {
            TraceEvent e;
            e.kind = TraceEvent::Kind::MmapAt;
            e.addr = base;
            e.arg = length;
            e.fileId = file_id;
            e.flag = writable;
            e.fileBacked = file_backed;
            trace_.events.push_back(e);
        }
        return ok;
    }

    void
    munmap(Addr base, Addr length) override
    {
        inner_.munmap(base, length);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Munmap, base, length, 0, false,
                       false});
    }

    void
    access(Addr va, bool write) override
    {
        inner_.access(va, write);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Access, va, 0, 0, write, false});
    }

    void
    instrFetch(Addr va) override
    {
        inner_.instrFetch(va);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::InstrFetch, va, 0, 0, false,
                       false});
    }

    void
    compute(std::uint64_t n) override
    {
        inner_.compute(n);
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Compute, 0, n, 0, false, false});
    }

    void
    forkTouchExit(std::uint64_t touch_pages) override
    {
        inner_.forkTouchExit(touch_pages);
        trace_.events.push_back(TraceEvent{
            TraceEvent::Kind::ForkTouchExit, 0, touch_pages, 0, false,
            false});
    }

    void
    yield() override
    {
        inner_.yield();
        trace_.events.push_back(
            TraceEvent{TraceEvent::Kind::Yield, 0, 0, 0, false, false});
    }

    void
    reclaimTick(std::uint64_t max_pages) override
    {
        inner_.reclaimTick(max_pages);
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::ReclaimTick,
                                           0, max_pages, 0, false,
                                           false});
    }

    void
    sharePagesScan() override
    {
        inner_.sharePagesScan();
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::SharePages,
                                           0, 0, 0, false, false});
    }

    ProcId
    spawnProcess() override
    {
        ProcId pid = inner_.spawnProcess();
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::SpawnProcess,
                                           0, pid, 0, false, false});
        return pid;
    }

    void
    switchTo(ProcId pid) override
    {
        inner_.switchTo(pid);
        trace_.events.push_back(TraceEvent{TraceEvent::Kind::SwitchTo, 0,
                                           pid, 0, false, false});
    }

    ProcId currentProcess() const override { return inner_.currentProcess(); }

    Rng &rng() override { return inner_.rng(); }

  private:
    WorkloadHost &inner_;
    Trace trace_;
};

/**
 * Replays a captured trace as a workload. Mmap events replay at their
 * recorded bases, so the address stream is bit-exact; replaying the
 * same trace under different techniques isolates the technique's
 * effect the way the paper's trace-driven methodology does.
 */
class TraceReplayWorkload : public Workload
{
  public:
    explicit TraceReplayWorkload(Trace trace);

    std::string name() const override;
    void init(WorkloadHost &host) override;
    void warmup(WorkloadHost &host) override;
    bool step(WorkloadHost &host) override;
    /** The recorded warmup boundary is authoritative. */
    bool selfWarmup() const override { return true; }

  private:
    Trace trace_;
    std::uint64_t next_ = 0;
};

/**
 * Serialize a trace in the compact RLE/SoA format ("APTRACE2", ~8.25
 * bytes per access): compileTrace + writeCompiledTrace. @return
 * success.
 */
bool writeTrace(const Trace &trace, std::ostream &os);
bool writeTraceFile(const Trace &trace, const std::string &path);

/**
 * Deserialize into the event-list form: readCompiledTrace +
 * decompileTrace, for consumers that need one event at a time (the
 * differential oracle). @return false on malformed input.
 */
bool readTrace(std::istream &is, Trace &out);
bool readTraceFile(const std::string &path, Trace &out);

} // namespace ap

#endif // AGILEPAGING_TRACE_TRACE_HH
