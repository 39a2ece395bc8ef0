/**
 * @file
 * Walk-trace summarizer and binary file I/O (see walk_trace.hh).
 */

#include "trace/walk_trace.hh"

#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

namespace ap
{

namespace
{

/** File magic "APWT" (little-endian u32) and the current version. */
constexpr std::uint32_t kWalkTraceMagic = 0x54575041u;
constexpr std::uint32_t kWalkTraceVersion = 1;

void
putU16(std::ostream &os, std::uint16_t v)
{
    unsigned char b[2] = {static_cast<unsigned char>(v),
                          static_cast<unsigned char>(v >> 8)};
    os.write(reinterpret_cast<const char *>(b), sizeof(b));
}

void
putU32(std::ostream &os, std::uint32_t v)
{
    unsigned char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b), sizeof(b));
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    os.write(reinterpret_cast<const char *>(b), sizeof(b));
}

bool
getU16(std::istream &is, std::uint16_t &v)
{
    unsigned char b[2];
    if (!is.read(reinterpret_cast<char *>(b), sizeof(b)))
        return false;
    v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
    return true;
}

bool
getU32(std::istream &is, std::uint32_t &v)
{
    unsigned char b[4];
    if (!is.read(reinterpret_cast<char *>(b), sizeof(b)))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return true;
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    unsigned char b[8];
    if (!is.read(reinterpret_cast<char *>(b), sizeof(b)))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return true;
}

void
putRecord(std::ostream &os, const WalkTraceRecord &r)
{
    putU64(os, r.va);
    putU32(os, r.asid);
    os.put(static_cast<char>(r.mode));
    os.put(static_cast<char>(r.pageSize));
    os.put(static_cast<char>(r.flags));
    os.put(static_cast<char>(r.switchDepth));
    os.put(static_cast<char>(r.refs));
    os.put(static_cast<char>(r.coldRefs));
    for (std::uint8_t t : r.refsByTable)
        os.put(static_cast<char>(t));
    os.put(static_cast<char>(r.pwcStartDepth));
    os.put(static_cast<char>(r.ntlbHits));
    os.put(static_cast<char>(r.faults));
    putU16(os, r.trapMask);
}

bool
getRecord(std::istream &is, WalkTraceRecord &r)
{
    if (!getU64(is, r.va))
        return false;
    std::uint32_t asid = 0;
    if (!getU32(is, asid))
        return false;
    r.asid = asid;
    unsigned char b[9 + kNumWalkTables];
    if (!is.read(reinterpret_cast<char *>(b), sizeof(b)))
        return false;
    std::size_t i = 0;
    r.mode = b[i++];
    r.pageSize = b[i++];
    r.flags = b[i++];
    r.switchDepth = b[i++];
    r.refs = b[i++];
    r.coldRefs = b[i++];
    for (std::uint8_t &t : r.refsByTable)
        t = b[i++];
    r.pwcStartDepth = b[i++];
    r.ntlbHits = b[i++];
    r.faults = b[i++];
    return getU16(is, r.trapMask);
}

/** Shape identity: every field that describes *how* the walk went,
 *  ignoring which address/process triggered it. */
std::uint64_t
shapeKey(const WalkTraceRecord &r)
{
    std::uint64_t k = r.mode;
    k = (k << 8) | r.pageSize;
    k = (k << 8) | (r.flags & WalkTraceRecord::kFlagFullNested);
    k = (k << 8) | r.switchDepth;
    k = (k << 8) | r.refsByTable[0];
    k = (k << 8) | r.refsByTable[1];
    k = (k << 8) | r.refsByTable[2];
    std::uint64_t k2 = r.refsByTable[3];
    k2 = (k2 << 8) | r.pwcStartDepth;
    k2 = (k2 << 8) | r.ntlbHits;
    return k * 0x1000000ull + k2;
}

} // namespace

unsigned
coverageClass(const WalkTraceRecord &r)
{
    // Mirrors Walker::recordCoverage exactly so trace-derived coverage
    // matches the in-simulator counters bit for bit.
    if (r.fullNested())
        return 5;
    if (r.switchDepth >= kPtLevels)
        return 0;
    return kPtLevels - r.switchDepth;
}

WalkTraceSummary
summarizeWalkTrace(const std::vector<WalkTraceRecord> &records,
                   std::uint64_t dropped, std::size_t top_shapes)
{
    WalkTraceSummary s;
    s.walks = records.size();
    s.dropped = dropped;

    std::map<std::uint64_t, WalkShape> shapes;
    for (const WalkTraceRecord &r : records) {
        ++s.coverageCounts[coverageClass(r)];
        s.refsTotal += r.refs;
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            if (r.trapMask & (1u << k))
                ++s.trapByCause[k];
        }
        if (r.faults)
            ++s.faultedMisses;
        if (r.pwcStartDepth)
            ++s.pwcResumed;
        s.ntlbHits += r.ntlbHits;

        WalkShape &sh = shapes[shapeKey(r)];
        if (!sh.count)
            sh.sample = r;
        ++sh.count;
    }

    if (s.walks) {
        // Same arithmetic as Machine::delta: integer-valued doubles
        // divided once, so equal inputs give bit-equal fractions.
        for (unsigned i = 0; i < 6; ++i)
            s.coverage[i] =
                double(s.coverageCounts[i]) / double(s.walks);
        s.avgWalkRefs = double(s.refsTotal) / double(s.walks);
    }

    s.topShapes.reserve(shapes.size());
    for (auto &[key, sh] : shapes)
        s.topShapes.push_back(sh);
    std::sort(s.topShapes.begin(), s.topShapes.end(),
              [](const WalkShape &a, const WalkShape &b) {
                  return a.count > b.count;
              });
    if (s.topShapes.size() > top_shapes)
        s.topShapes.resize(top_shapes);
    return s;
}

WalkTraceSummary
summarizeWalkTrace(const WalkTraceBuffer &buffer, std::size_t top_shapes)
{
    return summarizeWalkTrace(buffer.snapshot(), buffer.dropped(),
                              top_shapes);
}

std::string
walkShapeLabel(const WalkTraceRecord &r)
{
    std::ostringstream os;
    os << virtModeName(static_cast<VirtMode>(r.mode)) << '/'
       << pageSizeName(static_cast<PageSize>(r.pageSize));
    if (r.fullNested())
        os << " full-nested";
    else if (r.switchDepth >= kPtLevels)
        os << " full-shadow";
    else
        os << " switch@" << unsigned(r.switchDepth);
    for (std::size_t t = 0; t < kNumWalkTables; ++t) {
        if (r.refsByTable[t]) {
            os << ' ' << walkTableName(static_cast<WalkTable>(t)) << ':'
               << unsigned(r.refsByTable[t]);
        }
    }
    if (r.pwcStartDepth)
        os << " pwc@" << unsigned(r.pwcStartDepth);
    if (r.ntlbHits)
        os << " ntlb:" << unsigned(r.ntlbHits);
    return os.str();
}

void
printWalkTraceSummary(std::ostream &os, const WalkTraceSummary &s)
{
    os << "walks: " << s.walks << "\n";
    if (s.dropped) {
        os << "dropped: " << s.dropped
           << "  (ring wrapped; coverage below is partial)\n";
    }
    if (!s.walks)
        return;

    os << "avg refs/walk: " << std::fixed << std::setprecision(2)
       << s.avgWalkRefs << "\n";
    os << "pwc-resumed walks: " << s.pwcResumed
       << "  ntlb hits: " << s.ntlbHits
       << "  faulted misses: " << s.faultedMisses << "\n";

    static const char *const kCoverageNames[6] = {
        "full shadow (4 refs)", "switch@3 (8 refs)",
        "switch@2 (12 refs)",   "switch@1 (16 refs)",
        "switch@0 (20 refs)",   "full nested (24 refs)",
    };
    os << "mode coverage (Table VI):\n";
    for (unsigned i = 0; i < 6; ++i) {
        if (!s.coverageCounts[i])
            continue;
        os << "  " << std::left << std::setw(22) << kCoverageNames[i]
           << std::right << std::setw(10) << s.coverageCounts[i] << "  "
           << std::fixed << std::setprecision(2)
           << 100.0 * s.coverage[i] << "%\n";
    }

    bool any_trap = false;
    for (std::size_t k = 0; k < kNumTrapKinds; ++k)
        any_trap = any_trap || s.trapByCause[k];
    if (any_trap) {
        os << "misses charging VM exits, by cause:\n";
        for (std::size_t k = 0; k < kNumTrapKinds; ++k) {
            if (!s.trapByCause[k])
                continue;
            os << "  " << std::left << std::setw(22)
               << trapKindName(static_cast<TrapKind>(k)) << std::right
               << std::setw(10) << s.trapByCause[k] << "\n";
        }
    }

    if (!s.topShapes.empty()) {
        os << "top walk shapes:\n";
        for (const WalkShape &sh : s.topShapes) {
            os << "  " << std::setw(10) << sh.count << "  "
               << walkShapeLabel(sh.sample) << "\n";
        }
    }
}

bool
writeWalkTrace(const WalkTraceBuffer &buffer, std::ostream &os)
{
    const std::vector<WalkTraceRecord> records = buffer.snapshot();
    putU32(os, kWalkTraceMagic);
    putU32(os, kWalkTraceVersion);
    putU64(os, records.size());
    putU64(os, buffer.appended());
    putU64(os, buffer.dropped());
    for (const WalkTraceRecord &r : records)
        putRecord(os, r);
    return bool(os);
}

bool
writeWalkTraceFile(const WalkTraceBuffer &buffer, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeWalkTrace(buffer, os);
}

bool
readWalkTrace(std::istream &is, std::vector<WalkTraceRecord> &records,
              std::uint64_t &dropped)
{
    std::uint32_t magic = 0, version = 0;
    std::uint64_t count = 0, appended = 0;
    if (!getU32(is, magic) || magic != kWalkTraceMagic)
        return false;
    if (!getU32(is, version) || version != kWalkTraceVersion)
        return false;
    if (!getU64(is, count) || !getU64(is, appended) ||
        !getU64(is, dropped)) {
        return false;
    }
    records.clear();
    // No reserve on count: it is unvalidated, and the loop below stops
    // at the first record the stream does not hold.
    for (std::uint64_t i = 0; i < count; ++i) {
        WalkTraceRecord r;
        if (!getRecord(is, r))
            return false;
        records.push_back(r);
    }
    return true;
}

bool
readWalkTraceFile(const std::string &path,
                  std::vector<WalkTraceRecord> &records,
                  std::uint64_t &dropped)
{
    std::ifstream is(path, std::ios::binary);
    return is && readWalkTrace(is, records, dropped);
}

} // namespace ap
