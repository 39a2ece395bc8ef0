/**
 * @file
 * Streaming trace reader / replay implementation.
 */

#include "trace/trace_stream.hh"

#include <cstring>

namespace ap
{

namespace
{
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

/** Replay chunk size: small relative to kMaxRunEvents, large enough
 *  to amortize refill overhead. */
constexpr std::size_t kReplayChunk = 4096;
} // namespace

TraceFileReader::TraceFileReader(const std::string &path)
    : is_(path, std::ios::binary)
{
    if (is_ && !readHeader())
        version_ = 0;
}

bool
TraceFileReader::readHeader()
{
    char magic[8];
    is_.read(magic, sizeof(magic));
    if (!is_)
        return false;
    if (std::memcmp(magic, "APTRACE2", 8) == 0)
        version_ = 2;
    else if (std::memcmp(magic, "APTRACE1", 8) == 0)
        version_ = 1;
    else
        return false;

    std::uint64_t name_len = 0;
    if (!get(is_, name_len) || name_len > (1u << 20))
        return false;
    workload_.resize(name_len);
    is_.read(workload_.data(), static_cast<std::streamsize>(name_len));
    if (!get(is_, seed_) || !get(is_, warmup_))
        return false;
    if (version_ == 2) {
        std::uint64_t warmup_ops = 0; // replay recomputes its own
        if (!get(is_, warmup_ops) || !get(is_, event_count_) ||
            !get(is_, op_count_)) {
            return false;
        }
    } else {
        if (!get(is_, event_count_))
            return false;
    }
    return bool(is_);
}

bool
TraceFileReader::refillRun()
{
    std::uint64_t n = 0;
    if (!get(is_, n) || n == 0 || n > kMaxRunEvents) {
        bad_ = true;
        return false;
    }
    run_vas_.resize(n);
    is_.read(reinterpret_cast<char *>(run_vas_.data()),
             static_cast<std::streamsize>(n * sizeof(Addr)));
    run_w_.assign(bitmapWords(n), 0);
    run_i_.assign(bitmapWords(n), 0);
    is_.read(reinterpret_cast<char *>(run_w_.data()),
             static_cast<std::streamsize>(run_w_.size() * 8));
    is_.read(reinterpret_cast<char *>(run_i_.data()),
             static_cast<std::streamsize>(run_i_.size() * 8));
    if (!is_) {
        bad_ = true;
        return false;
    }
    run_pos_ = 0;
    return true;
}

std::size_t
TraceFileReader::next(std::vector<TraceEvent> &out, std::size_t max)
{
    out.clear();
    if (!ok())
        return 0;

    if (version_ == 1) {
        while (out.size() < max && events_read_ < event_count_) {
            TraceEvent e;
            std::uint8_t kind = 0, flags = 0;
            if (!get(is_, kind) || !get(is_, e.addr) ||
                !get(is_, e.arg) || !get(is_, e.fileId) ||
                !get(is_, flags) ||
                kind > static_cast<std::uint8_t>(TraceEvent::kLastKind)) {
                bad_ = true;
                break;
            }
            e.kind = static_cast<TraceEvent::Kind>(kind);
            e.flag = flags & 1;
            e.fileBacked = flags & 2;
            out.push_back(e);
            ++events_read_;
        }
        return out.size();
    }

    while (out.size() < max && events_read_ < event_count_) {
        if (run_pos_ < run_vas_.size()) {
            // Drain the in-progress access run.
            std::uint64_t j = run_pos_++;
            TraceEvent e;
            if (testBit(run_i_, j)) {
                e.kind = TraceEvent::Kind::InstrFetch;
            } else {
                e.kind = TraceEvent::Kind::Access;
                e.flag = testBit(run_w_, j);
            }
            e.addr = run_vas_[j];
            out.push_back(e);
            ++events_read_;
            continue;
        }
        if (ops_read_ >= op_count_)
            break;
        std::uint8_t kind = 0;
        if (!get(is_, kind) ||
            kind > static_cast<std::uint8_t>(TraceEvent::kLastKind)) {
            bad_ = true;
            break;
        }
        ++ops_read_;
        if (static_cast<TraceEvent::Kind>(kind) ==
            TraceEvent::Kind::Access) {
            if (!refillRun())
                break;
            continue;
        }
        TraceEvent e;
        e.kind = static_cast<TraceEvent::Kind>(kind);
        std::uint8_t flags = 0;
        if (!get(is_, e.addr) || !get(is_, e.arg) ||
            !get(is_, e.fileId) || !get(is_, flags)) {
            bad_ = true;
            break;
        }
        e.flag = flags & 1;
        e.fileBacked = flags & 2;
        out.push_back(e);
        ++events_read_;
    }
    return out.size();
}

// ---------------------------------------------------------------------
// StreamReplayWorkload
// ---------------------------------------------------------------------

StreamReplayWorkload::StreamReplayWorkload(const std::string &path)
    : Workload(WorkloadParams{}), path_(path),
      reader_(std::make_unique<TraceFileReader>(path))
{
    if (reader_->ok()) {
        params_.seed = reader_->seed();
        params_.operations =
            reader_->eventCount() > reader_->warmupEvents()
                ? reader_->eventCount() - reader_->warmupEvents()
                : 0;
    }
}

std::string
StreamReplayWorkload::name() const
{
    return "replay:" + (reader_ ? reader_->workload() : std::string());
}

void
StreamReplayWorkload::init(WorkloadHost &host)
{
    (void)host;
    // Forward-only reader: rewind by reopening.
    reader_ = std::make_unique<TraceFileReader>(path_);
    buf_.clear();
    buf_pos_ = 0;
    applied_ = 0;
}

bool
StreamReplayWorkload::applyNext(WorkloadHost &host)
{
    if (buf_pos_ >= buf_.size()) {
        buf_pos_ = 0;
        if (!reader_->next(buf_, kReplayChunk))
            return false;
    }
    applyTraceEvent(host, buf_[buf_pos_++]);
    ++applied_;
    return true;
}

void
StreamReplayWorkload::warmup(WorkloadHost &host)
{
    while (applied_ < reader_->warmupEvents()) {
        if (!applyNext(host))
            break;
    }
}

bool
StreamReplayWorkload::step(WorkloadHost &host)
{
    if (!applyNext(host))
        return false;
    return applied_ < reader_->eventCount();
}

} // namespace ap
