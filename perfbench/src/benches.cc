/**
 * @file
 * The benchmark's four workloads.
 */

#include "benches.hh"

#include <chrono>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "cells.hh"
#include "harness.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/parallel_runner.hh"

namespace perfbench
{

using ap::ExperimentSpec;
using ap::RunResult;
using Clock = std::chrono::steady_clock;

double
Bench::peakRssMb() const
{
    return selfPeakRssMb();
}

namespace
{

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Run @p fn(i) for every cell on kThreads threads, timing each call
 * and digesting each result. A throwing cell is logged and left with
 * digest 0, so the check counts it as failed.
 */
template <typename Fn>
PassResult
runCells(std::size_t n, Fn &&fn)
{
    PassResult pr;
    pr.digests.assign(n, 0);
    pr.cellMs.assign(n, 0);
    std::vector<RunResult> runs(n);
    std::vector<char> ok(n, 0);
    auto t0 = Clock::now();
    ap::parallelFor(n, kThreads, [&](std::size_t i) {
        auto c0 = Clock::now();
        try {
            runs[i] = fn(i);
            ok[i] = 1;
        } catch (const std::exception &e) {
            std::cerr << "perfbench: cell " << i << " failed: " << e.what()
                      << "\n";
        }
        pr.cellMs[i] = msBetween(c0, Clock::now());
    });
    pr.wallS = secondsSince(t0);

    for (std::size_t i = 0; i < n; ++i) {
        if (ok[i])
            pr.digests[i] = runDigest(runs[i]);
    }
    return pr;
}

/** fig5-cold: every cell on a fresh Machine and generator. */
class ColdBench : public Bench
{
  public:
    explicit ColdBench(std::uint64_t seed)
        : seed_(seed), cells_(figure5Cells())
    {
    }

    const std::vector<ExperimentSpec> &cells() const override
    {
        return cells_;
    }
    std::uint64_t seed() const override { return seed_; }
    std::string referenceSet() const override { return "fig5"; }

    std::vector<PassResult>
    setup(bool instrumented) override
    {
        return {pass(instrumented)};
    }

    PassResult
    pass(bool instrumented) override
    {
        return runCells(cells_.size(), [&](std::size_t i) {
            return runPlain(cells_[i], seed_, i, instrumented);
        });
    }

  private:
    std::uint64_t seed_;
    std::vector<ExperimentSpec> cells_;
};

/**
 * fig5-fork: the same cells forked from warm trace and snapshot caches
 * through runCellSnapshotted and a MachinePool.
 */
class ForkBench : public Bench
{
  public:
    explicit ForkBench(std::uint64_t seed)
        : seed_(seed), cells_(figure5Cells())
    {
    }

    const std::vector<ExperimentSpec> &cells() const override
    {
        return cells_;
    }
    std::uint64_t seed() const override { return seed_; }
    std::string referenceSet() const override { return "fig5"; }

    std::vector<PassResult>
    setup(bool instrumented) override
    {
        state_.reset();
        state_ = std::make_unique<State>();
        // The first pass records each trace and captures every
        // non-recording cell; the recording cells' configs are
        // captured by the second. After it, every cell forks.
        std::vector<PassResult> out;
        out.push_back(pass(instrumented));
        records_ = state_->traces.records();
        replays_ = state_->traces.replays();
        out.push_back(pass(instrumented));
        return out;
    }

    PassResult
    pass(bool instrumented) override
    {
        State &s = *state_;
        return runCells(cells_.size(), [&](std::size_t i) {
            return runSnapshotted(s.traces, s.snaps, s.pool, cells_[i],
                                  seed_, i, instrumented);
        });
    }

    void finish() override { state_.reset(); }

    LayerCounters
    layerCounters() const override
    {
        double leases =
            double(state_->pool.creates() + state_->pool.reuses());
        return {
            {"trace.records", double(records_)},
            {"trace.replays", double(replays_)},
            {"sim.pool_reuse_frac",
             leases ? state_->pool.reuses() / leases : 0},
        };
    }

  private:
    struct State
    {
        ap::TraceCache traces;
        ap::SnapshotCache snaps;
        ap::MachinePool pool;
    };

    std::uint64_t seed_;
    std::vector<ExperimentSpec> cells_;
    std::unique_ptr<State> state_;
    std::uint64_t records_ = 0;
    std::uint64_t replays_ = 0;
};

/**
 * vcpu4-coherence: the coherence-stress cells at 4 vCPUs through
 * runCellCached, a fresh TraceCache per pass.
 */
class CoherenceBench : public Bench
{
  public:
    explicit CoherenceBench(std::uint64_t seed)
        : seed_(seed), cells_(coherenceCells())
    {
    }

    const std::vector<ExperimentSpec> &cells() const override
    {
        return cells_;
    }
    std::uint64_t seed() const override { return seed_; }
    std::string referenceSet() const override { return "coherence"; }

    std::vector<PassResult>
    setup(bool instrumented) override
    {
        return {pass(instrumented)};
    }

    PassResult
    pass(bool instrumented) override
    {
        ap::TraceCache traces;
        PassResult pr = runCells(cells_.size(), [&](std::size_t i) {
            return runCached(traces, cells_[i], seed_, i, instrumented);
        });
        records_ = traces.records();
        replays_ = traces.replays();
        return pr;
    }

    LayerCounters
    layerCounters() const override
    {
        return {{"trace.records", double(records_)},
                {"trace.replays", double(replays_)}};
    }

  private:
    std::uint64_t seed_;
    std::vector<ExperimentSpec> cells_;
    std::uint64_t records_ = 0;
    std::uint64_t replays_ = 0;
};

/**
 * service-rows: one client connection sends the Figure 5 matrix one
 * row (workload x page size x 4 modes) per batch to a fresh
 * kThreads-worker ServiceServer per pass, waiting for BatchEnd before the next row.
 * The wire ExperimentSpec has no seed field, so the daemon always
 * runs the workloads' default seed (42), whatever --seed says.
 */
class ServiceBench : public Bench
{
  public:
    ServiceBench() : cells_(figure5Cells()) {}

    const std::vector<ExperimentSpec> &cells() const override
    {
        return cells_;
    }
    std::uint64_t seed() const override
    {
        return ap::defaultParamsFor(cells_.front().workload).seed;
    }
    std::string referenceSet() const override { return "fig5"; }

    std::vector<PassResult>
    setup(bool instrumented) override
    {
        return {pass(instrumented)};
    }

    PassResult pass(bool instrumented) override;

    double
    peakRssMb() const override
    {
        return childrenPeakRssMb();
    }

    LayerCounters
    layerCounters() const override
    {
        return {
            {"service.cells", double(stats_.cells)},
            {"service.batches", double(stats_.batches)},
            {"service.affinity_hits", double(stats_.affinityHits)},
            {"service.steals", double(stats_.steals)},
            {"service.cell_retries", double(stats_.cellRetries)},
        };
    }

  private:
    static constexpr std::size_t kRowCells = 4;

    std::vector<ExperimentSpec> cells_;
    /** Summed over every daemon this process ran. */
    ap::service::ServiceStats stats_;
};

PassResult
ServiceBench::pass(bool instrumented)
{
    (void)instrumented; // cells run in the workers: only client spans
    namespace svc = ap::service;
    PassResult pr;
    pr.digests.assign(cells_.size(), 0);
    pr.cellMs.assign(cells_.size(), 0);

    svc::ServiceOptions opt;
    opt.tcpPort = 0;
    opt.workers = kThreads;
    // start() forks the workers: it runs while this process has no
    // other thread (the serve thread of the previous pass is joined).
    svc::ServiceServer server(opt);
    std::string err;
    {
        Span s("service.start");
        if (!server.start(&err))
            throw std::runtime_error("service start: " + err);
    }
    std::thread serve_thread([&server] { server.serve(); });
    svc::ServiceClient client;
    if (!client.connectTcp(server.port(), &err)) {
        server.requestStop();
        serve_thread.join();
        throw std::runtime_error("service connect: " + err);
    }

    for (std::size_t row = 0; row * kRowCells < cells_.size(); ++row) {
        std::size_t base = row * kRowCells;
        std::vector<ExperimentSpec> batch(cells_.begin() + base,
                                          cells_.begin() + base + kRowCells);
        Span span("service.batch", static_cast<std::int64_t>(row));
        auto t0 = Clock::now();
        double first = -1;
        svc::BatchOutcome outcome = client.runBatch(
            batch, [&](svc::FrameType type, const std::string &json) {
                double ms = msBetween(t0, Clock::now());
                if (first < 0)
                    first = ms;
                std::int64_t cell = svc::cellOfFrame(json);
                if (cell < 0 || cell >= std::int64_t(kRowCells))
                    return;
                pr.cellMs[base + cell] = ms;
                if (type == svc::FrameType::RunFrame) {
                    pr.digests[base + cell] =
                        fnv1a(svc::runObjectOfFrame(json));
                }
            });
        double ms = msBetween(t0, Clock::now());
        pr.reqMs.push_back(ms);
        pr.firstFrameMs.push_back(first < 0 ? ms : first);
        pr.wallS += ms / 1e3;
        if (!outcome.ok) {
            std::cerr << "perfbench: batch " << row
                      << " failed: " << outcome.error << "\n";
        }
    }

    client.close();
    server.requestStop();
    serve_thread.join();
    const svc::ServiceStats &st = server.stats();
    stats_.cells += st.cells;
    stats_.batches += st.batches;
    stats_.affinityHits += st.affinityHits;
    stats_.steals += st.steals;
    stats_.cellRetries += st.cellRetries;
    return pr;
}

} // namespace

std::unique_ptr<Bench>
makeBench(const std::string &name, std::uint64_t seed)
{
    if (name == "fig5-cold")
        return std::make_unique<ColdBench>(seed);
    if (name == "fig5-fork")
        return std::make_unique<ForkBench>(seed);
    if (name == "vcpu4-coherence")
        return std::make_unique<CoherenceBench>(seed);
    if (name == "service-rows")
        return std::make_unique<ServiceBench>();
    return nullptr;
}

std::vector<std::string>
benchNames()
{
    return {"fig5-cold", "fig5-fork", "vcpu4-coherence", "service-rows"};
}

std::vector<RunResult>
runPlainCells(const std::vector<ExperimentSpec> &cells, std::uint64_t seed)
{
    return ap::parallelMap(cells.size(), kThreads, [&](std::size_t i) {
        return runPlain(cells[i], seed);
    });
}

} // namespace perfbench
