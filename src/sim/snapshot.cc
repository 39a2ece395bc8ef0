/**
 * @file
 * Snapshot capture/restore, config digest, on-disk container and the
 * snapshot cache.
 */

#include "sim/snapshot.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "base/serialize.hh"
#include "sim/machine.hh"

namespace ap
{

namespace
{

constexpr char kMagic[8] = {'A', 'P', 'S', 'N', 'A', 'P', '5', '\0'};

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

} // namespace

std::uint64_t
simConfigDigest(const SimConfig &cfg)
{
    // Serialize every behavior-affecting field in a fixed order and
    // hash the bytes. New knobs MUST be appended here: a forgotten
    // field would let a snapshot restore into a machine that diverges.
    Serializer s;
    s.putU32(2); // digest schema version (v2: range-backend knobs)
    s.putU8(static_cast<std::uint8_t>(cfg.mode));
    s.putU8(static_cast<std::uint8_t>(cfg.pageSize));
    s.putU64(cfg.hostMemFrames);
    s.putU64(cfg.guestPtFrames);
    s.putU64(cfg.guestDataFrames);
    auto geom = [&s](const TlbGeometry &g) {
        s.putU64(g.entries);
        s.putU64(g.ways);
    };
    geom(cfg.tlb.l1d4k);
    geom(cfg.tlb.l1d2m);
    geom(cfg.tlb.l1i4k);
    geom(cfg.tlb.l1i2m);
    geom(cfg.tlb.l2u4k);
    s.putBool(cfg.pwcEnabled);
    s.putU64(cfg.pwcEntries);
    s.putU64(cfg.pwcWays);
    s.putBool(cfg.ntlbEnabled);
    s.putU64(cfg.ntlbEntries);
    s.putU64(cfg.ntlbWays);
    s.putU64(cfg.cyclesPerOp);
    s.putU64(cfg.walkRefCycles);
    s.putU64(cfg.walkRefWarmCycles);
    s.putDouble(cfg.warmupFraction);
    s.putU64(cfg.l2TlbHitCycles);
    s.putU64(cfg.ctxSwitchGuestCycles);
    s.putU64(cfg.trapCosts.exitRoundTrip);
    for (Cycles c : cfg.trapCosts.handlerWork)
        s.putU64(c);
    s.putU64(cfg.trapCosts.perEntryWork);
    s.putU8(static_cast<std::uint8_t>(cfg.guestOs.pageSize));
    s.putU64(cfg.guestOs.pageFaultCost);
    s.putU64(cfg.guestOs.cowCopyCost);
    s.putU64(cfg.guestOs.syscallCost);
    s.putU64(cfg.guestOs.perPageCost);
    s.putBool(cfg.hwOptAd);
    s.putU32(cfg.adWritebackRefs);
    s.putU64(cfg.sptrCacheEntries);
    s.putBool(cfg.unsyncEnabled);
    s.putU32(cfg.policy.writeThreshold);
    s.putU8(static_cast<std::uint8_t>(cfg.policy.backPolicy));
    s.putBool(cfg.policy.startNested);
    s.putDouble(cfg.policy.tlbOverheadThreshold);
    s.putDouble(cfg.policy.nestedWalkFactor);
    s.putU64(cfg.policy.projectedTrapCost);
    s.putDouble(cfg.policy.engageMargin);
    s.putU32(cfg.policy.promoteAfterCleanIntervals);
    s.putDouble(cfg.shsp.nestedWalkFactor);
    s.putDouble(cfg.shsp.switchMargin);
    s.putU64(cfg.shsp.projectedTrapCost);
    s.putDouble(cfg.shsp.minBenefitFrac);
    s.putU32(cfg.shsp.minResidency);
    s.putBool(cfg.shsp.startNested);
    s.putU64(cfg.policyIntervalOps);
    s.putBool(cfg.verifyTranslations);
    s.putU32(cfg.numVcpus);
    s.putU8(static_cast<std::uint8_t>(cfg.tlbCoherence));
    s.putU64(cfg.vcpuQuantumOps);
    s.putU64(cfg.ipiShootdownCycles);
    s.putU64(cfg.hwInvalidateCycles);
    s.putU32(cfg.range.segmentRegs);
    s.putU64(cfg.range.segmentMinPages);
    s.putU64(cfg.range.segmentMaxPages);
    s.putU64(cfg.range.segmentFillCycles);
    return fnv1a(s.data().data(), s.size());
}

SnapshotPtr
captureSnapshot(const Machine &machine)
{
    auto snap = std::make_shared<MachineSnapshot>();
    snap->configDigest = simConfigDigest(machine.config());
    Serializer s;
    machine.saveState(s);
    snap->bytes = s.takeData();
    return snap;
}

bool
restoreSnapshot(const MachineSnapshot &snap, Machine &machine)
{
    if (snap.configDigest != simConfigDigest(machine.config()))
        return false;
    Deserializer d(snap.bytes);
    return machine.restoreState(d);
}

bool
writeSnapshot(const MachineSnapshot &snap, std::ostream &os)
{
    os.write(kMagic, sizeof(kMagic));
    put(os, snap.configDigest);
    put(os, std::uint64_t{snap.bytes.size()});
    os.write(reinterpret_cast<const char *>(snap.bytes.data()),
             static_cast<std::streamsize>(snap.bytes.size()));
    put(os, fnv1a(snap.bytes.data(), snap.bytes.size()));
    return bool(os);
}

bool
writeSnapshotFile(const MachineSnapshot &snap, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeSnapshot(snap, os);
}

bool
readSnapshot(std::istream &is, MachineSnapshot &out)
{
    char magic[8];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return false;
    std::uint64_t size = 0;
    if (!get(is, out.configDigest) || !get(is, size))
        return false;
    // A machine image is at most a few multiples of host memory.
    if (size > (std::uint64_t{1} << 36))
        return false;
    // The size is unvalidated until the bytes arrive: grow the buffer a
    // bounded chunk at a time, so a short stream costs one chunk.
    constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
    out.bytes.clear();
    while (out.bytes.size() < size) {
        std::size_t got = out.bytes.size();
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, size - got));
        out.bytes.resize(got + n);
        is.read(reinterpret_cast<char *>(out.bytes.data() + got),
                static_cast<std::streamsize>(n));
        if (!is)
            return false;
    }
    std::uint64_t checksum = 0;
    if (!get(is, checksum))
        return false;
    return checksum == fnv1a(out.bytes.data(), out.bytes.size());
}

bool
readSnapshotFile(const std::string &path, MachineSnapshot &out)
{
    std::ifstream is(path, std::ios::binary);
    return is && readSnapshot(is, out);
}

std::string
SnapshotCache::filePath(const SnapshotKey &key) const
{
    // Stable (cross-process) key digest, unlike SnapshotKeyHash whose
    // std::hash mixing is implementation-defined.
    std::uint64_t h = fnv1a(key.workload.data(), key.workload.size());
    const std::uint64_t words[4] = {key.operations, key.seed,
                                    key.footprintBytes,
                                    key.configDigest};
    h = fnv1a(words, sizeof(words), h);
    char name[17];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + name + ".apsnap";
}

SnapshotPtr
SnapshotCache::obtain(const SnapshotKey &key, const CaptureFn &capture)
{
    std::promise<SnapshotPtr> promise;
    std::shared_future<SnapshotPtr> fut;
    bool winner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            winner = true;
            fut = promise.get_future().share();
            map_.emplace(key, fut);
        } else {
            fut = it->second;
            ++forks_;
            // Refresh recency so a hot key survives the byte budget.
            auto res = resident_.find(key);
            if (res != resident_.end())
                lru_.splice(lru_.end(), lru_, res->second.pos);
        }
    }
    if (winner) {
        // Capture outside the lock: distinct keys warm concurrently
        // and only same-key requesters wait.
        try {
            SnapshotPtr snap;
            bool from_disk = false;
            if (!dir_.empty()) {
                auto loaded = std::make_shared<MachineSnapshot>();
                if (readSnapshotFile(filePath(key), *loaded) &&
                    loaded->configDigest == key.configDigest) {
                    snap = std::move(loaded);
                    from_disk = true;
                }
            }
            if (!snap)
                snap = capture();
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (from_disk)
                    ++disk_loads_;
                else
                    ++captures_;
                if (snap)
                    insertResidentLocked(key, snap->bytes.size());
            }
            if (!dir_.empty() && !from_disk && snap)
                writeSnapshotFile(*snap, filePath(key)); // best effort
            promise.set_value(std::move(snap));
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return fut.get();
}

void
SnapshotCache::insertResidentLocked(const SnapshotKey &key,
                                    std::uint64_t bytes)
{
    auto pos = lru_.insert(lru_.end(), key);
    resident_[key] = Resident{pos, bytes};
    resident_bytes_ += bytes;
    evictToBudgetLocked();
}

void
SnapshotCache::evictToBudgetLocked()
{
    if (!budget_bytes_)
        return;
    // Never evict the MRU entry (lru_.back()): a budget smaller than
    // one image must still let that image's own requesters fork it.
    while (resident_bytes_ > budget_bytes_ && lru_.size() > 1) {
        const SnapshotKey victim = lru_.front();
        auto res = resident_.find(victim);
        resident_bytes_ -= res->second.bytes;
        lru_.pop_front();
        resident_.erase(res);
        map_.erase(victim);
        ++evictions_;
    }
}

void
SnapshotCache::setByteBudget(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    budget_bytes_ = bytes;
    evictToBudgetLocked();
}

std::uint64_t
SnapshotCache::captures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return captures_;
}

std::uint64_t
SnapshotCache::forks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return forks_;
}

std::uint64_t
SnapshotCache::diskLoads() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return disk_loads_;
}

std::uint64_t
SnapshotCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

std::uint64_t
SnapshotCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return resident_bytes_;
}

} // namespace ap
