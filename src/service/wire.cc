/**
 * @file
 * Wire protocol implementation.
 */

#include "service/wire.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/report.hh"
#include "tlb/coherence.hh"
#include "workloads/workload.hh"

namespace ap
{
namespace service
{

namespace
{

/** Structure marker heading every binary payload. */
constexpr std::uint32_t kBatchMarker = 0x42415431;  // "BAT1"
constexpr std::uint32_t kCellMarker = 0x43454C31;   // "CEL1"
constexpr std::uint32_t kResultMarker = 0x52455331; // "RES1"

/** The last valid mode and page-size tags on the wire. */
constexpr std::uint8_t kLastModeTag =
    static_cast<std::uint8_t>(VirtMode::Range);
constexpr std::uint8_t kLastPageTag =
    static_cast<std::uint8_t>(PageSize::Size2M);

bool
writeAll(int fd, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    while (n) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** @return 1 on success, 0 on clean EOF at the first byte, -1 on
 *  error or EOF mid-buffer. */
int
readAll(int fd, void *out, std::size_t n)
{
    auto *p = static_cast<std::uint8_t *>(out);
    std::size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, p + got, n - got);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0)
            return got == 0 ? 0 : -1;
        got += static_cast<std::size_t>(r);
    }
    return 1;
}

void
putSpec(Serializer &s, const ExperimentSpec &spec)
{
    s.putString(spec.workload);
    s.putU8(static_cast<std::uint8_t>(spec.mode));
    s.putU8(static_cast<std::uint8_t>(spec.pageSize));
    s.putU64(spec.operations);
    s.putBool(spec.hwOpts);
    s.putU32(spec.numVcpus);
    s.putU8(static_cast<std::uint8_t>(spec.tlbCoherence));
}

bool
getSpec(Deserializer &d, ExperimentSpec &spec, std::string &err)
{
    spec.workload = d.getString();
    std::uint8_t mode = d.getU8();
    std::uint8_t page = d.getU8();
    spec.operations = d.getU64();
    spec.hwOpts = d.getBool();
    spec.numVcpus = d.getU32();
    std::uint8_t coherence = d.getU8();
    if (!d.ok()) {
        err = "truncated spec";
        return false;
    }
    if (mode > kLastModeTag) {
        err = "mode tag out of range";
        return false;
    }
    if (page > kLastPageTag) {
        err = "page-size tag out of range";
        return false;
    }
    if (coherence > static_cast<std::uint8_t>(TlbCoherence::Hardware)) {
        err = "coherence tag out of range";
        return false;
    }
    spec.mode = static_cast<VirtMode>(mode);
    spec.pageSize = static_cast<PageSize>(page);
    spec.tlbCoherence = static_cast<TlbCoherence>(coherence);
    return true;
}

} // namespace

bool
writeFrame(int fd, FrameType type, const void *data, std::size_t n)
{
    if (n > kMaxFrameLen)
        return false;
    std::uint32_t len = static_cast<std::uint32_t>(n);
    std::uint8_t header[5];
    std::memcpy(header, &len, 4);
    header[4] = static_cast<std::uint8_t>(type);
    if (!writeAll(fd, header, sizeof(header)))
        return false;
    return n == 0 || writeAll(fd, data, n);
}

bool
writeFrame(int fd, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    return writeFrame(fd, type, payload.data(), payload.size());
}

bool
writeFrame(int fd, FrameType type, const std::string &payload)
{
    return writeFrame(fd, type, payload.data(), payload.size());
}

void
setNoDelay(int fd)
{
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) < 0 ||
        addr.ss_family != AF_INET)
        return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ReadStatus
readFrame(int fd, Frame &out)
{
    std::uint8_t header[5];
    int r = readAll(fd, header, sizeof(header));
    if (r == 0)
        return ReadStatus::Eof;
    if (r < 0)
        return ReadStatus::Broken;
    std::uint32_t len;
    std::memcpy(&len, header, 4);
    if (len > kMaxFrameLen)
        return ReadStatus::Broken;
    out.type = static_cast<FrameType>(header[4]);
    out.payload.resize(len);
    if (len && readAll(fd, out.payload.data(), len) != 1)
        return ReadStatus::Broken;
    return ReadStatus::Ok;
}

std::string
validateSpec(const ExperimentSpec &spec)
{
    static const std::vector<std::string> known = workloadNames();
    bool found = false;
    for (const std::string &name : known)
        found = found || name == spec.workload;
    if (!found)
        return "unknown workload \"" + spec.workload + "\"";
    switch (spec.mode) {
      case VirtMode::Native:
      case VirtMode::Nested:
      case VirtMode::Shadow:
      case VirtMode::Agile:
      case VirtMode::Shsp:
      case VirtMode::Range:
        break;
      default:
        return "invalid mode";
    }
    switch (spec.pageSize) {
      case PageSize::Size4K:
      case PageSize::Size2M:
        break;
      default:
        return "invalid page size";
    }
    if (spec.numVcpus < 1 || spec.numVcpus > 64)
        return "vCPU count out of range (1..64)";
    return {};
}

std::vector<std::uint8_t>
encodeBatch(const std::vector<ExperimentSpec> &specs)
{
    Serializer s;
    s.putMarker(kBatchMarker);
    s.putU32(static_cast<std::uint32_t>(specs.size()));
    for (const ExperimentSpec &spec : specs)
        putSpec(s, spec);
    return s.takeData();
}

bool
decodeBatch(const std::vector<std::uint8_t> &payload,
            std::vector<ExperimentSpec> &out, std::string &err)
{
    Deserializer d(payload);
    d.checkMarker(kBatchMarker);
    std::uint32_t n = d.getU32();
    if (!d.ok()) {
        err = "bad batch header";
        return false;
    }
    // Each spec is at least 20 bytes; an n the payload cannot possibly
    // hold is rejected before the resize loop touches it.
    if (n == 0 || std::uint64_t(n) * 20 > payload.size() + 20) {
        err = n == 0 ? "empty batch" : "cell count exceeds payload";
        return false;
    }
    out.clear();
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ExperimentSpec spec;
        if (!getSpec(d, spec, err)) {
            err = "cell " + std::to_string(i) + ": " + err;
            return false;
        }
        std::string invalid = validateSpec(spec);
        if (!invalid.empty()) {
            err = "cell " + std::to_string(i) + ": " + invalid;
            return false;
        }
        out.push_back(std::move(spec));
    }
    if (d.remaining() != 0) {
        err = "trailing bytes after batch";
        return false;
    }
    return true;
}

void
putRunResult(Serializer &s, const RunResult &r)
{
    s.putMarker(kResultMarker);
    s.putString(r.workload);
    s.putU8(static_cast<std::uint8_t>(r.mode));
    s.putU8(static_cast<std::uint8_t>(r.pageSize));
    s.putU64(r.instructions);
    s.putU64(r.idealCycles);
    s.putU64(r.walkCycles);
    s.putU64(r.trapCycles);
    s.putU64(r.tlbMisses);
    s.putU64(r.walks);
    s.putU64(r.traps);
    s.putU64(r.guestPageFaults);
    s.putDouble(r.avgWalkRefs);
    for (double c : r.coverage)
        s.putDouble(c);
    for (std::uint64_t t : r.trapByKind)
        s.putU64(t);
    s.putU32(r.numVcpus);
    s.putU64(r.coherenceCycles);
    s.putU64(r.shootdowns);
    s.putU64(r.remoteInvalidations);
    for (std::uint64_t c : r.shootdownsByCause)
        s.putU64(c);
    s.putU64(r.segmentHits);
    s.putU64(r.segmentSpills);
    s.putU64(r.segmentInvalidations);
    s.putDouble(r.rawRefsTotal);
    for (double c : r.rawCoverage)
        s.putDouble(c);
}

bool
getRunResult(Deserializer &d, RunResult &out)
{
    d.checkMarker(kResultMarker);
    out.workload = d.getString();
    std::uint8_t mode = d.getU8();
    std::uint8_t page = d.getU8();
    // Range-checked before the cast, as in getSpec: the result is
    // rendered by mode and page-size name.
    if (mode > kLastModeTag || page > kLastPageTag)
        return false;
    out.mode = static_cast<VirtMode>(mode);
    out.pageSize = static_cast<PageSize>(page);
    out.instructions = d.getU64();
    out.idealCycles = d.getU64();
    out.walkCycles = d.getU64();
    out.trapCycles = d.getU64();
    out.tlbMisses = d.getU64();
    out.walks = d.getU64();
    out.traps = d.getU64();
    out.guestPageFaults = d.getU64();
    out.avgWalkRefs = d.getDouble();
    for (double &c : out.coverage)
        c = d.getDouble();
    for (std::uint64_t &t : out.trapByKind)
        t = d.getU64();
    out.numVcpus = d.getU32();
    out.coherenceCycles = d.getU64();
    out.shootdowns = d.getU64();
    out.remoteInvalidations = d.getU64();
    for (std::uint64_t &c : out.shootdownsByCause)
        c = d.getU64();
    out.segmentHits = d.getU64();
    out.segmentSpills = d.getU64();
    out.segmentInvalidations = d.getU64();
    out.rawRefsTotal = d.getDouble();
    for (double &c : out.rawCoverage)
        c = d.getDouble();
    return d.ok();
}

std::vector<std::uint8_t>
encodeCellRequest(const CellRequest &req)
{
    Serializer s;
    s.putMarker(kCellMarker);
    s.putU64(req.batch);
    s.putU32(req.cell);
    putSpec(s, req.spec);
    return s.takeData();
}

bool
decodeCellRequest(const std::vector<std::uint8_t> &payload,
                  CellRequest &out)
{
    Deserializer d(payload);
    d.checkMarker(kCellMarker);
    out.batch = d.getU64();
    out.cell = d.getU32();
    std::string err;
    return d.ok() && getSpec(d, out.spec, err) && d.remaining() == 0;
}

std::vector<std::uint8_t>
encodeCellResult(const CellResult &res)
{
    Serializer s;
    s.putU64(res.batch);
    s.putU32(res.cell);
    s.putBool(res.ok);
    if (res.ok)
        putRunResult(s, res.run);
    else
        s.putString(res.error);
    return s.takeData();
}

bool
decodeCellResult(const std::vector<std::uint8_t> &payload,
                 CellResult &out)
{
    Deserializer d(payload);
    out.batch = d.getU64();
    out.cell = d.getU32();
    out.ok = d.getBool();
    if (!d.ok())
        return false;
    if (out.ok)
        return getRunResult(d, out.run) && d.remaining() == 0;
    out.error = d.getString();
    return d.ok() && d.remaining() == 0;
}

namespace
{

std::string
escapeJson(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            // Control characters (panic messages may embed newlines)
            // would break the one-object-per-frame NDJSON invariant.
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c) & 0xff);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
renderRunFrame(std::uint64_t batch, std::uint32_t cell, unsigned worker,
               const RunResult &r)
{
    std::ostringstream os;
    os << "{\"schema\": \"ap-run-frame-v1\", \"batch\": " << batch
       << ", \"cell\": " << cell << ", \"worker\": " << worker
       << ", \"run\": ";
    writeRunResultJson(os, r);
    os << "}";
    return os.str();
}

std::string
renderBatchEnd(std::uint64_t batch, std::uint32_t cells,
               std::uint32_t errors)
{
    std::ostringstream os;
    os << "{\"schema\": \"ap-batch-end-v1\", \"batch\": " << batch
       << ", \"cells\": " << cells << ", \"errors\": " << errors << "}";
    return os.str();
}

std::string
renderErrorFrame(const std::string &error, std::int64_t batch,
                 std::int64_t cell)
{
    std::ostringstream os;
    os << "{\"schema\": \"ap-error-v1\", \"error\": \""
       << escapeJson(error) << "\"";
    if (batch >= 0)
        os << ", \"batch\": " << batch;
    if (cell >= 0)
        os << ", \"cell\": " << cell;
    os << "}";
    return os.str();
}

} // namespace service
} // namespace ap
