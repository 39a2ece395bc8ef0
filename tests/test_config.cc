/**
 * @file
 * Config parsing, experiment defaults, perf model, and report
 * formatting tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"

namespace ap
{
namespace
{

TEST(Config, ParseVirtMode)
{
    VirtMode m;
    EXPECT_TRUE(parseVirtMode("native", m));
    EXPECT_EQ(m, VirtMode::Native);
    EXPECT_TRUE(parseVirtMode("AGILE", m));
    EXPECT_EQ(m, VirtMode::Agile);
    EXPECT_TRUE(parseVirtMode("shsp", m));
    EXPECT_EQ(m, VirtMode::Shsp);
    EXPECT_TRUE(parseVirtMode("n", m));
    EXPECT_EQ(m, VirtMode::Nested);
    EXPECT_FALSE(parseVirtMode("bogus", m));
}

TEST(Config, ParsePageSize)
{
    PageSize ps;
    EXPECT_TRUE(parsePageSize("4k", ps));
    EXPECT_EQ(ps, PageSize::Size4K);
    EXPECT_TRUE(parsePageSize("2M", ps));
    EXPECT_EQ(ps, PageSize::Size2M);
    EXPECT_FALSE(parsePageSize("8k", ps));
    EXPECT_FALSE(parsePageSize("1g", ps));
    EXPECT_FALSE(parsePageSize("1G", ps));
}

TEST(Config, ApplyOptions)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.applyOption("mode=shadow"));
    EXPECT_EQ(cfg.mode, VirtMode::Shadow);
    EXPECT_TRUE(cfg.applyOption("page=2m"));
    EXPECT_EQ(cfg.pageSize, PageSize::Size2M);
    EXPECT_EQ(cfg.guestOs.pageSize, PageSize::Size2M);
    EXPECT_TRUE(cfg.applyOption("walk_ref_cycles=77"));
    EXPECT_EQ(cfg.walkRefCycles, 77u);
    EXPECT_TRUE(cfg.applyOption("pwc=off"));
    EXPECT_FALSE(cfg.pwcEnabled);
    EXPECT_TRUE(cfg.applyOption("hw_opts=on"));
    EXPECT_TRUE(cfg.hwOptAd);
    EXPECT_EQ(cfg.sptrCacheEntries, 8u);
    EXPECT_TRUE(cfg.applyOption("back_policy=periodic"));
    EXPECT_EQ(cfg.policy.backPolicy, BackPolicy::PeriodicReset);
    EXPECT_FALSE(cfg.applyOption("nonsense=1"));
    EXPECT_FALSE(cfg.applyOption("mode"));
    EXPECT_FALSE(cfg.applyOption("mode=xyz"));
}

TEST(Config, ParseU64RejectsJunk)
{
    std::uint64_t v = 99;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("184467", v));
    EXPECT_EQ(v, 184467u);
    EXPECT_TRUE(parseU64("18446744073709551615", v)); // UINT64_MAX
    EXPECT_EQ(v, ~std::uint64_t{0});

    // Trailing junk must not silently truncate ("4k" -> 4).
    EXPECT_FALSE(parseU64("4k", v));
    EXPECT_FALSE(parseU64("1e6", v));
    EXPECT_FALSE(parseU64("7 ", v));
    // Negatives must not wrap ("-1" -> 2^64-1), and signs are out.
    EXPECT_FALSE(parseU64("-1", v));
    EXPECT_FALSE(parseU64("+1", v));
    EXPECT_FALSE(parseU64(" 1", v));
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("abc", v));
    // Overflow past 2^64-1 is rejected, not wrapped.
    EXPECT_FALSE(parseU64("18446744073709551616", v));
}

TEST(Config, ApplyOptionRejectsMalformedNumbers)
{
    SimConfig cfg;
    std::uint64_t before = cfg.walkRefCycles;
    // Regression: these used to be accepted via bare stoull, silently
    // truncating "4k" to 4 and wrapping "-1" to 2^64-1.
    EXPECT_FALSE(cfg.applyOption("walk_ref_cycles=4k"));
    EXPECT_FALSE(cfg.applyOption("walk_ref_cycles=-1"));
    EXPECT_FALSE(cfg.applyOption("walk_ref_cycles="));
    EXPECT_EQ(cfg.walkRefCycles, before);
    EXPECT_TRUE(cfg.applyOption("walk_ref_cycles=12"));
    EXPECT_EQ(cfg.walkRefCycles, 12u);
}

TEST(Experiment, DefaultsPreserveTableVOrdering)
{
    // graph500 and memcached are the big-memory pair; astar is the
    // smallest, mcf the biggest of SPEC (Table V).
    auto fp = [](const char *w) {
        return defaultParamsFor(w).footprintBytes;
    };
    EXPECT_GT(fp("graph500"), fp("mcf"));
    EXPECT_GT(fp("memcached"), fp("dedup"));
    EXPECT_GT(fp("mcf"), fp("gcc"));
    EXPECT_GT(fp("gcc"), fp("astar"));
}

TEST(Experiment, ConfigSizesMemoryToFootprint)
{
    WorkloadParams p = defaultParamsFor("mcf");
    SimConfig cfg = configFor(VirtMode::Agile, PageSize::Size4K, p);
    EXPECT_GT(cfg.hostMemFrames * kPageBytes, 2 * p.footprintBytes);
    EXPECT_GT(cfg.guestDataFrames * kPageBytes, p.footprintBytes);
    EXPECT_EQ(cfg.mode, VirtMode::Agile);
    // Agile's evaluated configuration includes the hardware opts.
    EXPECT_TRUE(cfg.hwOptAd);
    EXPECT_GT(cfg.sptrCacheEntries, 0u);
    // ...but shadow stays faithful to deployed systems.
    SimConfig scfg = configFor(VirtMode::Shadow, PageSize::Size4K, p);
    EXPECT_FALSE(scfg.hwOptAd);
}

TEST(Experiment, RunExperimentProducesResult)
{
    ExperimentSpec spec;
    spec.workload = "astar";
    spec.mode = VirtMode::Shadow;
    spec.operations = 30'000;
    RunResult r = runExperiment(spec);
    EXPECT_EQ(r.workload, "astar");
    EXPECT_EQ(r.mode, VirtMode::Shadow);
    EXPECT_GT(r.instructions, 0u);
}

TEST(PerfModel, BreakdownMatchesRunResult)
{
    RunResult r;
    r.idealCycles = 1'000'000;
    r.walkCycles = 200'000;
    r.trapCycles = 100'000;
    r.tlbMisses = 4'000;
    r.avgWalkRefs = 4.5;
    PerfBreakdown b = computeBreakdown(r);
    EXPECT_DOUBLE_EQ(b.pageWalkOverhead, 0.2);
    EXPECT_DOUBLE_EQ(b.vmmOverhead, 0.1);
    EXPECT_DOUBLE_EQ(b.cyclesPerMiss, 50.0);
    EXPECT_DOUBLE_EQ(b.slowdown, 1.3);
}

TEST(PerfModel, EmptyRunIsSafe)
{
    RunResult r;
    PerfBreakdown b = computeBreakdown(r);
    EXPECT_FALSE(b.hasData); // "no data", not a measured 0% overhead
    EXPECT_DOUBLE_EQ(b.pageWalkOverhead, 0.0);
    EXPECT_DOUBLE_EQ(b.slowdown, 1.0);
}

TEST(PerfModel, ZeroMissRunHasNoData)
{
    // Instructions retired but the TLB never missed: overhead is 0/0,
    // not 0%. The breakdown must say "no data" instead.
    RunResult r;
    r.instructions = 1'000'000;
    r.idealCycles = 1'000'000;
    PerfBreakdown b = computeBreakdown(r);
    EXPECT_FALSE(b.hasData);

    r.tlbMisses = 1;
    r.walkCycles = 40;
    EXPECT_TRUE(computeBreakdown(r).hasData);
}

TEST(PerfModel, ZeroMissProjectionIsNan)
{
    RunResult shadow, nested, agile;
    shadow.walkCycles = 400'000;
    nested.walkCycles = 2'400'000;
    agile.coverage[0] = 1.0;
    // No run recorded a single miss: per-miss costs are undefined and
    // the projection must say so rather than report 0 cycles.
    double projected = projectAgileWalkCycles(shadow, nested, agile);
    EXPECT_TRUE(std::isnan(projected));
}

TEST(PerfModel, BadCoverageSumPanics)
{
    RunResult shadow, nested, agile;
    shadow.walkCycles = 40;
    shadow.tlbMisses = 1;
    nested.walkCycles = 240;
    nested.tlbMisses = 1;
    agile.tlbMisses = 1;
    agile.coverage[0] = 0.5; // fractions sum to 0.5 — corrupt
    EXPECT_THROW(projectAgileWalkCycles(shadow, nested, agile),
                 std::logic_error);
}

TEST(PerfModel, AgileProjectionInterpolates)
{
    RunResult shadow, nested, agile;
    shadow.walkCycles = 400'000;
    shadow.tlbMisses = 10'000; // C_S = 40
    nested.walkCycles = 2'400'000;
    nested.tlbMisses = 10'000; // C_N = 240
    agile.tlbMisses = 10'000;
    agile.coverage[0] = 0.8; // shadow-served
    agile.coverage[1] = 0.2; // leaf-switched (half-cost assumption)
    double projected = projectAgileWalkCycles(shadow, nested, agile);
    // 0.8*40 + 0.2*(40 + 0.5*200) = 32 + 28 = 60 per miss.
    EXPECT_NEAR(projected, 60.0 * 10'000, 1e-6);
}

TEST(Report, ConfigLabelsMatchPaperStyle)
{
    RunResult r;
    r.mode = VirtMode::Native;
    r.pageSize = PageSize::Size4K;
    EXPECT_EQ(configLabel(r), "4K:B");
    r.mode = VirtMode::Agile;
    r.pageSize = PageSize::Size2M;
    EXPECT_EQ(configLabel(r), "2M:A");
}

TEST(Report, Figure5ContainsRows)
{
    RunResult r;
    r.workload = "mcf";
    r.mode = VirtMode::Nested;
    r.idealCycles = 100;
    r.walkCycles = 50;
    std::ostringstream os;
    printFigure5(os, {r});
    EXPECT_NE(os.str().find("mcf"), std::string::npos);
    EXPECT_NE(os.str().find("4K:N"), std::string::npos);
    EXPECT_NE(os.str().find("50.0%"), std::string::npos);
}

TEST(Report, Table6PercentagesAndAverage)
{
    RunResult r;
    r.workload = "memcached";
    r.coverage[0] = 0.882;
    r.coverage[1] = 0.045;
    r.coverage[2] = 0.073;
    r.avgWalkRefs = 4.76;
    std::ostringstream os;
    printTable6(os, {r});
    EXPECT_NE(os.str().find("memcached"), std::string::npos);
    EXPECT_NE(os.str().find("88.2%"), std::string::npos);
    EXPECT_NE(os.str().find("4.76"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndRow)
{
    RunResult r;
    r.workload = "gcc";
    r.mode = VirtMode::Shadow;
    std::ostringstream os;
    printCsv(os, {r});
    EXPECT_NE(os.str().find("workload,mode"), std::string::npos);
    EXPECT_NE(os.str().find("gcc,Shadow,4K"), std::string::npos);
}

TEST(Report, OverheadBarScales)
{
    EXPECT_EQ(overheadBar(0.0).size(), 0u);
    EXPECT_EQ(overheadBar(0.10).size(), 5u);
    // At the cap the bar is exactly 60 columns of '#'.
    std::string capped = overheadBar(1.20);
    EXPECT_EQ(capped.size(), 60u);
    EXPECT_EQ(capped.find('+'), std::string::npos);
    // Beyond the cap it is clamped and marked, not silently flattened.
    std::string over = overheadBar(100.0);
    EXPECT_EQ(over.size(), 61u);
    EXPECT_EQ(over.back(), '+');
}

} // namespace
} // namespace ap
