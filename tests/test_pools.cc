/**
 * @file
 * Pool tests: page-table frames under sustained 2M-page mapping churn,
 * the guest frame-pool counters in the stats tree, and the trace
 * engine's thread-local scratch recycler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "guestos/guest_os.hh"
#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "trace/buffer_pool.hh"

namespace ap
{
namespace
{

/**
 * Sustained 2M-page process churn — the snapshot-fork teardown/rebuild
 * pattern: each iteration creates a process, THP-maps and faults a
 * multi-huge-page region (allocating guest, shadow and host PT pages),
 * then reaps it. Every guest and shadow table page goes back to
 * PhysMem with its process; the host tables, which live as long as
 * the VMM, stop growing once the first iteration has backed its
 * frames.
 */
TEST(PhysMem, BoundedUnder2MProcessChurn)
{
    stats::StatGroup root{"t"};
    PhysMem mem(1 << 16);
    VmmConfig vcfg;
    vcfg.guestPtFrames = 1 << 12;
    vcfg.guestDataFrames = 1 << 14;
    vcfg.hostPageSize = PageSize::Size2M;
    Vmm vmm(&root, mem, vcfg, nullptr);
    ShadowMgr smgr(&root, mem, vmm, ShadowConfig{}, nullptr);
    GuestOsConfig cfg;
    cfg.pageSize = PageSize::Size2M;
    GuestOs os(&root, mem, &vmm, &smgr, nullptr, cfg);

    auto process_tables = [&mem] {
        return mem.tableFrames(TableOwner::GuestPt) +
               mem.tableFrames(TableOwner::ShadowPt);
    };
    const std::uint64_t before = process_tables();
    std::uint64_t host_after_first = 0;
    for (int iter = 0; iter < 64; ++iter) {
        ProcId pid = os.createProcess(VirtMode::Agile);
        Addr base = os.mmap(pid, 4 * kLargePageBytes, true,
                            VmaKind::Anon);
        ASSERT_NE(base, 0u);
        for (unsigned i = 0; i < 4; ++i)
            os.handlePageFault(pid, base + i * kLargePageBytes, true);
        ASSERT_GT(process_tables(), before);
        os.reapProcess(pid);
        ASSERT_EQ(process_tables(), before) << "iteration " << iter;
        if (iter == 0)
            host_after_first = mem.tableFrames(TableOwner::HostPt);
    }
    EXPECT_GE(host_after_first, 1u);
    EXPECT_EQ(mem.tableFrames(TableOwner::HostPt), host_after_first);
}

/**
 * The guest frame-pool observability counters are exported as
 * formulas on the machine's stats tree, so every stats dump (text and
 * ap-stats-v1 JSON) carries them.
 */
TEST(FrameAllocator, CountersExportedInMachineStats)
{
    SimConfig cfg = configFor(VirtMode::Agile, PageSize::Size4K,
                              WorkloadParams{});
    Machine machine(cfg);
    std::ostringstream js;
    machine.dumpJson(js);
    const std::string out = js.str();
    for (const char *name :
         {"guest_pt_frame_recycles", "guest_pt_frame_high_water",
          "guest_data_frame_recycles", "guest_data_frame_high_water"}) {
        EXPECT_NE(out.find(name), std::string::npos)
            << name << " missing from stats JSON";
    }
    EXPECT_EQ(out.find("arena_"), std::string::npos);
}

TEST(TraceBufferPool, EventBuffersKeepCapacityAcrossRecycle)
{
    TraceBufferPool &pool = TraceBufferPool::instance();
    std::uint64_t reuses_before = pool.eventReuses();

    std::vector<TraceEvent> v = pool.takeEvents();
    v.reserve(10000);
    TraceEvent *data = v.data();
    std::size_t cap = v.capacity();
    pool.giveEvents(std::move(v));

    std::vector<TraceEvent> w = pool.takeEvents();
    EXPECT_EQ(w.data(), data);       // same backing store came back
    EXPECT_EQ(w.capacity(), cap);    // with its capacity intact
    EXPECT_TRUE(w.empty());          // but cleared
    EXPECT_EQ(pool.eventReuses(), reuses_before + 1);
    pool.giveEvents(std::move(w));
}

TEST(TraceBufferPool, RecycleTraceReturnsEventStorage)
{
    TraceBufferPool &pool = TraceBufferPool::instance();

    Trace t;
    t.events = pool.takeEvents();
    t.events.reserve(4096);
    TraceEvent *data = t.events.data();
    recycleTrace(std::move(t));

    std::vector<TraceEvent> w = pool.takeEvents();
    EXPECT_EQ(w.data(), data);
    pool.giveEvents(std::move(w));
}

TEST(TraceBufferPool, PooledWordsLoanRoundTrips)
{
    const std::uint64_t *data = nullptr;
    std::size_t cap = 0;
    {
        PooledWords loan;
        loan->reserve(512);
        data = loan->data();
        cap = loan->capacity();
    } // destructor hands the buffer back
    {
        PooledWords loan;
        EXPECT_EQ(loan->data(), data);
        EXPECT_EQ(loan->capacity(), cap);
        EXPECT_TRUE(loan->empty());
    }
}

} // namespace
} // namespace ap
