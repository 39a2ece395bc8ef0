/**
 * @file
 * Measurement helpers of the benchmark harness.
 */

#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unordered_map>

#include "sim/report.hh"

namespace perfbench
{

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

bool
percentile(std::vector<double> samples, double p, double &out,
           std::string *err)
{
    std::size_t n = samples.size();
    std::size_t beyond = samplesBeyond(n, p);
    if (p <= 0 || p >= 100 || beyond < kMinTailSamples) {
        if (err) {
            std::ostringstream os;
            os << "p" << p << " of " << n << " samples has " << beyond
               << " beyond it (need " << kMinTailSamples << ")";
            *err = os.str();
        }
        return false;
    }
    std::size_t rank = n - beyond; // 1-based nearest rank
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    out = samples[rank - 1];
    return true;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
runDigest(const ap::RunResult &r)
{
    std::ostringstream os;
    ap::writeRunResultJson(os, r);
    return fnv1a(os.str());
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

std::size_t
digestMismatches(const std::vector<std::uint64_t> &got,
                 const std::vector<std::uint64_t> &expected)
{
    std::size_t n = std::max(got.size(), expected.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= got.size() || i >= expected.size() ||
            got[i] != expected[i])
            ++bad;
    }
    return bad;
}

std::int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const SpanRecord &s : spans) {
        if (s.parent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, SelfTime> out;
    for (const SpanRecord &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t cur_lo = 0, cur_hi = -1;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startNs);
                hi = std::min(hi, s.endNs);
                if (hi <= lo)
                    continue;
                if (lo > cur_hi) {
                    if (cur_hi > cur_lo)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
        }
        SelfTime &t = out[s.name];
        t.ns += static_cast<double>(s.endNs - s.startNs - covered);
        ++t.calls;
        t.work += s.work;
    }
    return out;
}

namespace
{

/** Innermost open span of this thread (0 = none). */
thread_local std::uint32_t tl_current = 0;

} // namespace

std::uint32_t
SpanLog::open(const std::string &name, std::int64_t cell,
              std::uint32_t parent, std::int64_t start)
{
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.cell = cell;
    s.startNs = start;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(std::uint32_t id, std::int64_t end, const char *rename,
               std::uint64_t work)
{
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord &s = spans_[id - 1];
    s.endNs = end;
    s.work = work;
    if (rename)
        s.name = rename;
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanLog::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

bool
SpanLog::writeTsv(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "id\tparent\tname\tcell\tstart_ns\tend_ns\twork\n";
    for (const SpanRecord &s : spans()) {
        os << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.cell
           << '\t' << s.startNs << '\t' << s.endNs << '\t' << s.work
           << '\n';
    }
    return bool(os);
}

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

Span::Span(const char *name, std::int64_t cell)
{
    SpanLog &log = spanLog();
    if (!log.enabled())
        return;
    prev_ = tl_current;
    id_ = log.open(name, cell, prev_, nowNs());
    tl_current = id_;
}

Span::~Span()
{
    if (!id_)
        return;
    spanLog().close(id_, nowNs(), rename_, work_);
    tl_current = prev_;
}

double
cpuProbeMs()
{
    auto t0 = std::chrono::steady_clock::now();
    // A dependent xorshift chain: no memory traffic, no vectorisation,
    // so it reads only the core's speed and the host's contention.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    return secondsSince(t0) * 1e3;
}

namespace
{

double
maxRssMb(int who)
{
    struct rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

double
selfPeakRssMb()
{
    return maxRssMb(RUSAGE_SELF);
}

double
childrenPeakRssMb()
{
    return maxRssMb(RUSAGE_CHILDREN);
}

} // namespace perfbench
