/**
 * @file
 * Measurement helpers of the benchmark harness: percentiles that refuse
 * to extrapolate, result digests, in-memory trace spans with self
 * time, a host-drift probe and process memory readings. Nothing here
 * touches simulator state; the helpers only observe it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace perfbench
{

/** Fewest samples a reported percentile must have beyond it. */
constexpr std::size_t kMinTailSamples = 10;

/** Samples strictly beyond the nearest-rank @p p th percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Nearest-rank percentile @p p (0 < p < 100) of @p samples.
 * @return false, leaving @p out untouched and setting @p err, when
 * fewer than kMinTailSamples samples lie beyond the percentile — the
 * value would then rest on a handful of outliers.
 */
bool percentile(std::vector<double> samples, double p, double &out,
                std::string *err = nullptr);

/** Median of @p v (mean of the middle two for even sizes). */
double median(std::vector<double> v);

/** FNV-1a 64 of @p bytes. */
std::uint64_t fnv1a(const std::string &bytes);

/** fnv1a of the writeRunResultJson rendering of @p r — the "run"
 *  object a service RunFrame carries, byte for byte. */
std::uint64_t runDigest(const ap::RunResult &r);

/** @p d as 16 lowercase hex digits. */
std::string hexDigest(std::uint64_t d);

/**
 * Cells of @p got whose digest differs from @p expected (a size
 * mismatch counts every unmatched cell).
 */
std::size_t digestMismatches(const std::vector<std::uint64_t> &got,
                             const std::vector<std::uint64_t> &expected);

/** Steady-clock nanoseconds since the first call in this process. */
std::int64_t nowNs();

/** One recorded span: [startNs, endNs) of a named call. */
struct SpanRecord
{
    std::uint32_t id = 0;
    /** Enclosing span on the same thread (0 = none). */
    std::uint32_t parent = 0;
    std::string name;
    /** Cell the span worked for (-1 = not cell-scoped). */
    std::int64_t cell = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Units of work the call did (accesses, operations; 0 = none). */
    std::uint64_t work = 0;
};

/** Total self time, call count and work of one span name. */
struct SelfTime
{
    double ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t work = 0;

    /** Mean self time per call, ms (0 without calls). */
    double msPerCall() const { return calls ? ns / calls / 1e6 : 0; }
    /** Self time per unit of work, ns (0 without work). */
    double nsPerWork() const { return work ? ns / work : 0; }
};

/**
 * Self time per span name: each span's duration minus the part of it
 * covered by its child spans (children are merged first, so
 * overlapping children are not subtracted twice).
 */
std::map<std::string, SelfTime>
selfTimes(const std::vector<SpanRecord> &spans);

/**
 * In-memory span store. Recording is off unless enabled; a disabled
 * recorder makes Span a no-op apart from one branch, so the untraced
 * timed region pays nothing measurable for the instrumentation.
 */
class SpanLog
{
  public:
    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    std::vector<SpanRecord> spans() const;
    void clear();

    /** Write every span as TSV (id parent name cell start end work). */
    bool writeTsv(const std::string &path) const;

  private:
    friend class Span;
    std::uint32_t open(const std::string &name, std::int64_t cell,
                       std::uint32_t parent, std::int64_t start);
    void close(std::uint32_t id, std::int64_t end, const char *rename,
               std::uint64_t work);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/** The process-wide span log. */
SpanLog &spanLog();

/**
 * RAII span around one call into a layer. Nests per thread: the
 * innermost open span on the constructing thread becomes the parent.
 */
class Span
{
  public:
    explicit Span(const char *name, std::int64_t cell = -1);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Record the span under @p name instead (decided after the call). */
    void rename(const char *name) { rename_ = name; }
    /** Attribute @p units of work to the span. */
    void setWork(std::uint64_t units) { work_ = units; }

  private:
    std::uint32_t id_ = 0;
    std::uint32_t prev_ = 0;
    const char *rename_ = nullptr;
    std::uint64_t work_ = 0;
};

/**
 * Wall time of a fixed, program-independent integer loop, in ms. Read
 * before and after a run, it tells host drift apart from a program
 * change; it never normalises a reported metric.
 */
double cpuProbeMs();

/** Peak resident set of this process, MiB. */
double selfPeakRssMb();

/** Largest peak resident set among reaped children, MiB. */
double childrenPeakRssMb();

/** Seconds elapsed since @p t0. */
inline double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
