/**
 * @file
 * The probe path's shortcuts must be invisible in every result:
 *  - the L0 filter and the region-summary probe skips under set
 *    ping-pong, held to a verifyTranslations run that probes every
 *    access;
 *  - the region summary that lets Tlb::find skip a set scan;
 *  - the AssocCache snapshot bytes, pinned to the layout from before
 *    keys and generations shared a tag.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/serialize.hh"
#include "sim/machine.hh"
#include "tlb/assoc_cache.hh"
#include "tlb/tlb.hh"
#include "tlb/tlb_hierarchy.hh"

namespace ap
{
namespace
{

SimConfig
scriptConfig(VirtMode mode, unsigned vcpus, bool verify)
{
    SimConfig cfg;
    cfg.mode = mode;
    cfg.hostMemFrames = 1 << 16;
    cfg.guestPtFrames = 1 << 13;
    cfg.guestDataFrames = 1 << 15;
    cfg.policyIntervalOps = 500;
    cfg.numVcpus = vcpus;
    cfg.vcpuQuantumOps = 5;
    cfg.verifyTranslations = verify;
    return cfg;
}

/** Pages of one process that the script ping-pongs through. */
struct Region
{
    ProcId pid = 0;
    Addr data = 0;
    Addr code = 0;
};

/** Six data pages in one l1d4k set (16 sets apart), plus one page in
 *  the next set; the same for code and l1i4k (32 sets apart). */
Addr
dataPage(const Region &r, unsigned k)
{
    return k == 6 ? r.data + kPageBytes : r.data + k * 16 * kPageBytes;
}

Addr
codePage(const Region &r, unsigned k)
{
    return k == 6 ? r.code + kPageBytes : r.code + k * 32 * kPageBytes;
}

/** Set up two processes, each with a data and a code mapping. */
std::vector<Region>
setUp(Machine &m)
{
    std::vector<Region> regions(2);
    for (Region &r : regions) {
        r.pid = m.spawnProcess();
        r.data = m.mmap(1 << 20, true, false, 0);
        r.code = m.mmap(1 << 21, false, true, 7);
    }
    return regions;
}

/**
 * One round of the script for every process: reads, then stores to
 * entries a read filled clean, ping-pong through one set (more pages
 * than ways, so every visit evicts) and across two sets (so a page is
 * still its set's MRU way when the last-translation slot names
 * another page).
 */
void
scriptRound(Machine &m, const std::vector<Region> &regions, unsigned round)
{
    for (const Region &r : regions) {
        m.switchTo(r.pid);
        for (unsigned k = 0; k < 6; ++k) {
            m.touch(dataPage(r, k), false);
            m.touch(dataPage(r, 6), false);
            m.touch(dataPage(r, k), round % 2 == 1 && k % 2 == 0);
            m.touch(codePage(r, k), false, true);
            m.touch(codePage(r, 6), false, true);
            m.touch(codePage(r, k), false, true);
        }
        for (unsigned k = 0; k < 6; ++k) {
            m.touch(dataPage(r, k), round >= 2);
            m.touch(dataPage(r, k), false);
            m.touch(codePage(r, 5 - k), false, true);
        }
    }
    if (round == 1) {
        // A scoped flush, then a full flush, each followed by touches
        // of pages the current process touched last: every one must
        // miss again.
        const Region &r = regions.back();
        m.touch(dataPage(r, 6), false);
        m.tlb().flushPage(dataPage(r, 5), r.pid);
        m.touch(dataPage(r, 5), false);
        m.touch(dataPage(r, 6), false);
        m.tlb().flushAll();
        m.touch(dataPage(r, 5), false);
        m.touch(codePage(r, 0), false, true);
    }
}

struct ScriptOutcome
{
    RunResult result;
    std::string stats;
    std::vector<double> evictions;
};

ScriptOutcome
outcome(Machine &m)
{
    ScriptOutcome o;
    o.result = m.snapshot("script");
    std::ostringstream os;
    m.dump(os);
    o.stats = os.str();
    for (unsigned v = 0; v < m.numVcpus(); ++v) {
        TlbHierarchy &t = m.tlbOf(v);
        for (const Tlb *s : {&t.l1d4k, &t.l1d2m, &t.l1i4k, &t.l1i2m, &t.l2u4k})
            o.evictions.push_back(s->evictions.value());
    }
    return o;
}

ScriptOutcome
runScript(VirtMode mode, unsigned vcpus, bool verify)
{
    Machine m(scriptConfig(mode, vcpus, verify));
    std::vector<Region> regions = setUp(m);
    for (unsigned round = 0; round < 4; ++round)
        scriptRound(m, regions, round);
    return outcome(m);
}

void
expectSameOutcome(const ScriptOutcome &a, const ScriptOutcome &b)
{
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.walkCycles, b.result.walkCycles);
    EXPECT_EQ(a.result.trapCycles, b.result.trapCycles);
    EXPECT_EQ(a.result.tlbMisses, b.result.tlbMisses);
    EXPECT_EQ(a.result.walks, b.result.walks);
    EXPECT_EQ(a.result.traps, b.result.traps);
    EXPECT_EQ(a.result.guestPageFaults, b.result.guestPageFaults);
    EXPECT_EQ(a.result.coherenceCycles, b.result.coherenceCycles);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(L0SetFilter, PingPongMatchesUnfilteredRun)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::Shadow, VirtMode::Agile}) {
        for (unsigned vcpus : {1u, 2u}) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)) + " vcpus " +
                         std::to_string(vcpus));
            ScriptOutcome filtered = runScript(mode, vcpus, false);
            ScriptOutcome checked = runScript(mode, vcpus, true);
            expectSameOutcome(filtered, checked);
            // The script does what it claims: both L1 4K structures
            // evict, and stores through clean entries re-walked.
            EXPECT_GT(filtered.evictions[0], 0.0); // l1d4k
            EXPECT_GT(filtered.evictions[2], 0.0); // l1i4k
            EXPECT_GT(filtered.result.walks, 0u);
        }
    }
}

TEST(L0SetFilter, RestoredMachineResumesIdentically)
{
    for (unsigned vcpus : {1u, 2u}) {
        SCOPED_TRACE("vcpus " + std::to_string(vcpus));
        const SimConfig cfg = scriptConfig(VirtMode::Agile, vcpus, false);
        Machine m(cfg);
        std::vector<Region> regions = setUp(m);
        scriptRound(m, regions, 0);
        scriptRound(m, regions, 1);
        Serializer s;
        m.saveState(s);

        Machine forked(cfg);
        Deserializer d(s.data());
        ASSERT_TRUE(forked.restoreState(d));
        // The state round-trips: the fork saves the same image.
        Serializer again;
        forked.saveState(again);
        EXPECT_EQ(s.data(), again.data());

        for (unsigned round = 2; round < 4; ++round) {
            scriptRound(m, regions, round);
            scriptRound(forked, regions, round);
        }
        expectSameOutcome(outcome(m), outcome(forked));
    }
}

TEST(TlbRegionSummary, SkippedProbeStillCountsMiss)
{
    stats::StatGroup g("g");
    Tlb tlb("t", &g, 64, 4, PageSize::Size4K);
    // Empty: the summary is clear, every probe is a counted miss.
    EXPECT_EQ(tlb.find(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.misses.value(), 1.0);

    tlb.insert(0x1000, 1, TlbEntry{.pfn = 7, .writable = true, .asid = 1});
    // Another 2M region whose summary bit is clear.
    const Addr far = 5 * kLargePageBytes;
    EXPECT_EQ(tlb.find(far, 1), nullptr);
    EXPECT_EQ(tlb.misses.value(), 2.0);
    ASSERT_NE(tlb.find(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.hits.value(), 1.0);

    // flushAll empties the summary; the probe still counts.
    tlb.flushAll();
    EXPECT_EQ(tlb.find(0x1000, 1), nullptr);
    EXPECT_EQ(tlb.misses.value(), 3.0);
    EXPECT_EQ(tlb.hits.value(), 1.0);
}

/** Fill @p tlb with a deterministic mix of ASIDs, regions and flushes. */
void
churn(Tlb &tlb, Rng &rng)
{
    for (int i = 0; i < 400; ++i) {
        Addr va = (rng.next() % 4096) * kPageBytes;
        ProcId asid = 1 + rng.next() % 3;
        switch (rng.next() % 8) {
          case 0:
            tlb.flushPage(va, asid);
            break;
          case 1:
            tlb.flushRange(va, 64 * kPageBytes, asid);
            break;
          default:
            tlb.insert(va, asid,
                       TlbEntry{.pfn = va >> 12, .writable = true,
                                .asid = asid});
        }
    }
}

TEST(TlbRestore, RestoredTlbAnswersFindAndHoldsWithinAsCaptured)
{
    for (PageSize ps : {PageSize::Size4K, PageSize::Size2M}) {
        stats::StatGroup g("g");
        Tlb captured("captured", &g, 64, 4, ps);
        Rng rng(99);
        churn(captured, rng);
        Serializer s;
        captured.saveState(s);
        Tlb restored("restored", &g, 64, 4, ps);
        Deserializer d(s.data());
        restored.restoreState(d);
        ASSERT_TRUE(d.ok());

        Rng probes(5);
        for (int i = 0; i < 2000; ++i) {
            Addr va = (probes.next() % 4096) * kPageBytes;
            ProcId asid = 1 + probes.next() % 3;
            EXPECT_EQ(captured.holdsWithin(va, asid, PageSize::Size2M),
                      restored.holdsWithin(va, asid, PageSize::Size2M));
            const TlbEntry *a = captured.find(va, asid);
            const TlbEntry *b = restored.find(va, asid);
            ASSERT_EQ(a == nullptr, b == nullptr) << std::hex << va;
            if (a) {
                EXPECT_EQ(a->pfn, b->pfn);
            }
        }
        EXPECT_EQ(captured.hits.value(), restored.hits.value());
        EXPECT_EQ(captured.misses.value(), restored.misses.value());
        Serializer s1, s2;
        captured.saveState(s1);
        restored.saveState(s2);
        EXPECT_EQ(s1.data(), s2.data());
    }
}

/** saveState of a small cache after inserts, an LRU refresh, an
 *  eviction, an erase and a generation bump. */
AssocCache<std::uint32_t>
goldenCache()
{
    AssocCache<std::uint32_t> c(4, 2);
    c.insert(5, 1);
    c.clear();
    c.insert(0, 100);
    c.insert(2, 102);
    c.insert(1, 101);
    c.lookup(0);
    c.insert(4, 104);
    c.erase(1);
    return c;
}

/** The bytes of goldenCache().saveState: entries, ways, use clock,
 *  generation, then keys, generations, LRU stamps and payloads as four
 *  length-prefixed arrays. */
const char *const kGoldenHex =
    "0400000000000000020000000000000006000000000000000200000000000000"
    "0400000000000000000000000000000004000000000000000100000000000000"
    "0000000000000000040000000000000002000000000000000200000000000000"
    "0000000000000000000000000000000004000000000000000500000000000000"
    "0600000000000000040000000000000000000000000000000400000000000000"
    "64000000680000006500000000000000";

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 15];
    }
    return out;
}

TEST(AssocCacheGolden, SaveStateBytesArePinned)
{
    Serializer s;
    goldenCache().saveState(s);
    EXPECT_EQ(hex(s.data()), kGoldenHex);

    // Restoring the golden image reproduces it and the cache's answers.
    AssocCache<std::uint32_t> c(4, 2);
    Deserializer d(s.data());
    c.restoreState(d);
    ASSERT_TRUE(d.ok());
    Serializer again;
    c.saveState(again);
    EXPECT_EQ(hex(again.data()), kGoldenHex);
    ASSERT_NE(c.lookup(0), nullptr);
    EXPECT_EQ(*c.lookup(0), 100u);
    ASSERT_NE(c.lookup(4), nullptr);
    EXPECT_EQ(*c.lookup(4), 104u);
    EXPECT_EQ(c.lookup(1), nullptr);
    EXPECT_EQ(c.lookup(2), nullptr);
    EXPECT_EQ(c.lookup(5), nullptr);
}

} // namespace
} // namespace ap
