/**
 * @file
 * Warm-state machine snapshots: capture a Machine at its measurement
 * boundary once, then fork any number of fresh Machines from the
 * frozen state instead of re-running warmup.
 *
 * A MachineSnapshot is the flat byte image produced by
 * Machine::saveState plus a digest of every behavior-affecting
 * SimConfig field. Restoring into a freshly constructed Machine with
 * the same config reproduces the warmed machine exactly, so a
 * measured run from the restored state is bit-identical to the cold
 * run it replaces. The SnapshotCache memoizes snapshots per
 * (workload, params, config-digest) with the same first-wins
 * promise/shared_future discipline as the TraceCache, and can
 * optionally persist them as versioned "APSNAP5\0" files (v5: the
 * TLB payload holds no 1G DTLB).
 */

#ifndef AGILEPAGING_SIM_SNAPSHOT_HH
#define AGILEPAGING_SIM_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <future>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"

namespace ap
{

class Machine;

/**
 * Digest of every SimConfig field that can influence simulation
 * behavior (mode, sizes, geometries, costs, policies, ...). Two
 * configs with equal digests build Machines that evolve identically
 * under the same event stream, so the digest is both the cache-key
 * component and the restore-time compatibility check.
 */
std::uint64_t simConfigDigest(const SimConfig &cfg);

/** An immutable captured machine state. */
struct MachineSnapshot
{
    /** simConfigDigest of the config the machine was built with. */
    std::uint64_t configDigest = 0;
    /** Machine::saveState byte image. */
    std::vector<std::uint8_t> bytes;
};

using SnapshotPtr = std::shared_ptr<const MachineSnapshot>;

/** Serialize @p machine (typically sitting at its measurement
 *  boundary after Machine::runWarmup) into a fresh snapshot. */
SnapshotPtr captureSnapshot(const Machine &machine);

/**
 * Restore @p snap into @p machine, which must be newly built with a
 * config whose digest matches (see Machine::restoreState).
 * @return false on digest mismatch, on a machine that has already
 * run (left untouched), or on a corrupt image (machine unusable).
 */
bool restoreSnapshot(const MachineSnapshot &snap, Machine &machine);

/** Write/read the on-disk container ("APSNAP5\0" + digest + payload
 *  + checksum). read rejects bad magic, truncation and corruption. */
bool writeSnapshot(const MachineSnapshot &snap, std::ostream &os);
bool writeSnapshotFile(const MachineSnapshot &snap,
                       const std::string &path);
bool readSnapshot(std::istream &is, MachineSnapshot &out);
bool readSnapshotFile(const std::string &path, MachineSnapshot &out);

/**
 * Everything a warm state depends on: the operation stream identity
 * (workload, operations, seed, footprint) and the full machine
 * config. Unlike the TraceCacheKey, mode and every other config knob
 * ARE part of the key — warm state is machine state.
 */
struct SnapshotKey
{
    std::string workload;
    std::uint64_t operations = 0;
    std::uint64_t seed = 0;
    std::uint64_t footprintBytes = 0;
    std::uint64_t configDigest = 0;

    bool
    operator==(const SnapshotKey &o) const
    {
        return workload == o.workload && operations == o.operations &&
               seed == o.seed && footprintBytes == o.footprintBytes &&
               configDigest == o.configDigest;
    }
};

struct SnapshotKeyHash
{
    std::size_t
    operator()(const SnapshotKey &k) const
    {
        std::size_t h = std::hash<std::string>{}(k.workload);
        auto mix = [&h](std::uint64_t v) {
            h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ull +
                 (h << 6) + (h >> 2);
        };
        mix(k.operations);
        mix(k.seed);
        mix(k.footprintBytes);
        mix(k.configDigest);
        return h;
    }
};

/**
 * Thread-safe first-wins memo of machine snapshots, mirroring
 * TraceCache: the first requester of a key captures (running warmup
 * once), concurrent same-key requesters block on a shared_future, and
 * an exception from the capture function propagates to all of them.
 * With a directory set, snapshots additionally persist as
 * <hex-key>.apsnap files that later processes (or a later obtain in
 * this process) load instead of capturing.
 *
 * An optional byte budget bounds the pool: once the resident images
 * exceed it, the least-recently-obtained completed entries are evicted
 * until the pool fits (a later obtain of an evicted key re-captures or
 * re-loads it). In-flight captures are never evicted, and holders of a
 * previously returned SnapshotPtr keep their image alive regardless —
 * eviction only drops the pool's own reference.
 */
class SnapshotCache
{
  public:
    using CaptureFn = std::function<SnapshotPtr()>;

    SnapshotCache() = default;
    /** @param dir existing directory for .apsnap persistence. */
    explicit SnapshotCache(std::string dir) : dir_(std::move(dir)) {}

    /** Return the snapshot for @p key, capturing it on first use. */
    SnapshotPtr obtain(const SnapshotKey &key, const CaptureFn &capture);

    /**
     * Bound the resident image bytes (0 = unlimited, the default).
     * Applies to future obtains and immediately evicts down to the new
     * budget. A single image larger than the budget still resides
     * until the next insert (the pool never thrashes the entry it was
     * asked for).
     */
    void setByteBudget(std::uint64_t bytes);

    /** Keys captured in-process (cache misses). */
    std::uint64_t captures() const;
    /** Requests served from memory (cache hits). */
    std::uint64_t forks() const;
    /** Keys loaded from the snapshot directory. */
    std::uint64_t diskLoads() const;
    /** Completed entries dropped by the byte budget. */
    std::uint64_t evictions() const;
    /** Bytes of completed images currently resident. */
    std::uint64_t residentBytes() const;
    /** True when images persist to a directory. */
    bool persistent() const { return !dir_.empty(); }

  private:
    std::string filePath(const SnapshotKey &key) const;

    /** Account a completed capture and evict LRU entries past the
     *  budget. Caller must hold mu_. */
    void insertResidentLocked(const SnapshotKey &key,
                              std::uint64_t bytes);
    void evictToBudgetLocked();

    mutable std::mutex mu_;
    std::unordered_map<SnapshotKey, std::shared_future<SnapshotPtr>,
                       SnapshotKeyHash>
        map_;
    /** Completed keys, least recently obtained first. */
    std::list<SnapshotKey> lru_;
    /** Completed keys -> (position in lru_, image bytes). */
    struct Resident
    {
        std::list<SnapshotKey>::iterator pos;
        std::uint64_t bytes = 0;
    };
    std::unordered_map<SnapshotKey, Resident, SnapshotKeyHash> resident_;
    std::string dir_;
    std::uint64_t budget_bytes_ = 0;
    std::uint64_t resident_bytes_ = 0;
    std::uint64_t captures_ = 0;
    std::uint64_t forks_ = 0;
    std::uint64_t disk_loads_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace ap

#endif // AGILEPAGING_SIM_SNAPSHOT_HH
