/**
 * @file
 * VMM unit tests: guest physical space, backing, host faults, trap
 * accounting, content-based page sharing, and host COW.
 */

#include <gtest/gtest.h>

#include "base/bitfield.hh"
#include "vmm/vmm.hh"

namespace ap
{
namespace
{

class VmmTest : public ::testing::Test
{
  protected:
    VmmTest()
        : mem(1 << 15),
          vmm(&root, mem,
              VmmConfig{1024, 1 << 14, PageSize::Size4K, TrapCosts{}, 0},
              nullptr)
    {
    }

    stats::StatGroup root{"t"};
    PhysMem mem;
    Vmm vmm;
};

TEST_F(VmmTest, PtFramesAreLowAndBackedEagerly)
{
    FrameId g = vmm.allocGuestPtFrame();
    ASSERT_NE(g, 0u);
    EXPECT_TRUE(vmm.isPtRegion(g));
    FrameId h = vmm.backing(g);
    ASSERT_NE(h, 0u);
    EXPECT_EQ(mem.kind(h), FrameKind::PageTable);
    EXPECT_EQ(mem.owner(h), TableOwner::GuestPt);
    // hPT maps it 4K.
    auto m = vmm.hostPt().lookup(frameAddr(g));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->pfn, h);
    EXPECT_EQ(m->size, PageSize::Size4K);
}

TEST_F(VmmTest, DataFramesAreLazy)
{
    FrameId g = vmm.allocGuestDataFrame();
    ASSERT_NE(g, 0u);
    EXPECT_FALSE(vmm.isPtRegion(g));
    EXPECT_EQ(vmm.backing(g), 0u);
    EXPECT_FALSE(vmm.hostPt().lookup(frameAddr(g)).has_value());
}

TEST_F(VmmTest, HostFaultBacksAndCharges)
{
    FrameId g = vmm.allocGuestDataFrame();
    std::uint64_t traps_before = vmm.trapCount(TrapKind::HostFault);
    Cycles cycles_before = vmm.trapCycles();
    ASSERT_TRUE(vmm.handleHostFault(frameAddr(g)));
    EXPECT_EQ(vmm.trapCount(TrapKind::HostFault), traps_before + 1);
    EXPECT_GT(vmm.trapCycles(), cycles_before);
    EXPECT_NE(vmm.backing(g), 0u);
    EXPECT_TRUE(vmm.hostPt().lookup(frameAddr(g)).has_value());
}

TEST_F(VmmTest, ContiguousDataFramesAligned)
{
    FrameId g = vmm.allocGuestDataFrames(512);
    ASSERT_NE(g, 0u);
    EXPECT_TRUE(isAligned(frameAddr(g), PageSize::Size2M));
}

TEST_F(VmmTest, FreeRecyclesGuestFrames)
{
    FrameId g = vmm.allocGuestDataFrame();
    vmm.handleHostFault(frameAddr(g));
    std::uint64_t backed = vmm.backedDataFrames();
    vmm.freeGuestDataFrame(g);
    EXPECT_EQ(vmm.backedDataFrames(), backed - 1);
    EXPECT_EQ(vmm.backing(g), 0u);
}

TEST_F(VmmTest, DirtyTrackingRoundTrip)
{
    FrameId g = vmm.allocGuestPtFrame();
    EXPECT_FALSE(vmm.consumeGptDirty(g));
    vmm.markGptWriteDirty(g);
    // Architectural hPT dirty bit mirrors.
    const Pte *pte = vmm.hostPt().entry(frameAddr(g), kPtLevels - 1);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->dirty);
    EXPECT_TRUE(vmm.consumeGptDirty(g));
    EXPECT_FALSE(vmm.consumeGptDirty(g));
    EXPECT_FALSE(pte->dirty);
}

TEST_F(VmmTest, SharePagesCollapsesDuplicates)
{
    FrameId a = vmm.allocGuestDataFrame();
    FrameId b = vmm.allocGuestDataFrame();
    FrameId c = vmm.allocGuestDataFrame();
    vmm.handleHostFault(frameAddr(a));
    vmm.handleHostFault(frameAddr(b));
    vmm.handleHostFault(frameAddr(c));
    vmm.setContent(a, 777);
    vmm.setContent(b, 777);
    vmm.setContent(c, 888);
    std::uint64_t backed = vmm.backedDataFrames();
    EXPECT_EQ(vmm.sharePages(), 1u);
    EXPECT_EQ(vmm.backedDataFrames(), backed - 1);
    EXPECT_EQ(vmm.backing(a), vmm.backing(b));
    EXPECT_NE(vmm.backing(a), vmm.backing(c));
    // Both mappings now read-only.
    EXPECT_FALSE(vmm.hostWritable(a));
    EXPECT_FALSE(vmm.hostWritable(b));
    EXPECT_TRUE(vmm.hostWritable(c));
}

TEST_F(VmmTest, CowBreakRestoresPrivateWritable)
{
    FrameId a = vmm.allocGuestDataFrame();
    FrameId b = vmm.allocGuestDataFrame();
    vmm.handleHostFault(frameAddr(a));
    vmm.handleHostFault(frameAddr(b));
    vmm.setContent(a, 42);
    vmm.setContent(b, 42);
    vmm.sharePages();
    ASSERT_FALSE(vmm.hostWritable(b));
    std::uint64_t cows = vmm.trapCount(TrapKind::HostCow);
    ASSERT_TRUE(vmm.breakHostCow(b));
    EXPECT_EQ(vmm.trapCount(TrapKind::HostCow), cows + 1);
    EXPECT_TRUE(vmm.hostWritable(b));
    EXPECT_NE(vmm.backing(a), vmm.backing(b));
    auto m = vmm.hostPt().lookup(frameAddr(b));
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->pte.writable);
}

/** Bytes the VMM writes into a snapshot. */
std::size_t
imageBytes(const Vmm &vmm)
{
    Serializer s;
    vmm.saveState(s);
    return s.size();
}

TEST_F(VmmTest, BackingTableGrowsWithTouchedFrames)
{
    // The table starts empty and reaches a guest frame only once the
    // frame's slot is written, so the image grows with touched
    // frames, not with the guest-physical space.
    const std::size_t slot = 24; // bytes per saved backing
    std::size_t fresh = imageBytes(vmm);
    FrameId a = vmm.allocGuestDataFrame();
    EXPECT_EQ(imageBytes(vmm), fresh);
    EXPECT_EQ(vmm.backing(a), 0u);
    EXPECT_TRUE(vmm.hostWritable(a));
    ASSERT_TRUE(vmm.handleHostFault(frameAddr(a)));
    EXPECT_EQ(imageBytes(vmm), fresh + (a + 1) * slot);
    // Touching a lower frame does not grow the table further.
    FrameId pt = vmm.allocGuestPtFrame();
    ASSERT_LT(pt, a);
    EXPECT_EQ(imageBytes(vmm), fresh + (a + 1) * slot);
    // The 16384-frame data region alone would take 384 KiB.
    EXPECT_LT(imageBytes(vmm), (std::size_t{1} << 14) * slot / 8);
}

TEST_F(VmmTest, SharePagesOnSparseBackingTable)
{
    // Touch three frames spread over many allocated ones: the scan
    // sees only the touched prefix and leaves the rest unbacked.
    std::vector<FrameId> frames;
    for (int i = 0; i < 300; ++i)
        frames.push_back(vmm.allocGuestDataFrame());
    FrameId a = frames[10], b = frames[150], c = frames[200];
    vmm.handleHostFault(frameAddr(a));
    vmm.handleHostFault(frameAddr(b));
    vmm.handleHostFault(frameAddr(c));
    vmm.setContent(a, 555);
    vmm.setContent(b, 555);
    vmm.setContent(c, 556);
    // A content recorded on an untouched frame past the touched
    // prefix grows the table but backs nothing.
    vmm.setContent(frames[299], 556);
    std::vector<FrameId> remapped;
    EXPECT_EQ(vmm.sharePages(&remapped), 1u);
    EXPECT_EQ(remapped, (std::vector<FrameId>{a, b}));
    EXPECT_EQ(vmm.backing(a), vmm.backing(b));
    EXPECT_FALSE(vmm.hostWritable(b));
    EXPECT_TRUE(vmm.hostWritable(c));
    for (FrameId g : {frames[0], frames[11], frames[299]}) {
        EXPECT_EQ(vmm.backing(g), 0u);
        EXPECT_TRUE(vmm.hostWritable(g));
    }
    // The pending content applies when the frame is finally touched,
    // and the next scan reaches it.
    ASSERT_TRUE(vmm.handleHostFault(frameAddr(frames[299])));
    EXPECT_EQ(mem.contentId(vmm.backing(frames[299])), 556u);
    EXPECT_EQ(vmm.sharePages(), 1u);
    EXPECT_EQ(vmm.backing(frames[299]), vmm.backing(c));
}

TEST_F(VmmTest, TrapCostsMatchModel)
{
    TrapCosts costs;
    Cycles before = vmm.trapCycles();
    vmm.chargeTrap(TrapKind::CtxSwitch, 10);
    EXPECT_EQ(vmm.trapCycles() - before,
              costs.cost(TrapKind::CtxSwitch, 10));
    EXPECT_EQ(vmm.trapCountTotal(), vmm.trapCount(TrapKind::CtxSwitch));
}

TEST_F(VmmTest, PtRegionExhaustionReturnsZero)
{
    std::uint64_t got = 0;
    while (vmm.allocGuestPtFrame() != 0)
        ++got;
    EXPECT_EQ(got, 1024u);
    EXPECT_EQ(vmm.allocGuestPtFrame(), 0u);
}

class Vmm2MTest : public ::testing::Test
{
  protected:
    Vmm2MTest()
        : mem(1 << 15),
          vmm(&root, mem,
              VmmConfig{512, 1 << 14, PageSize::Size2M, TrapCosts{}, 0},
              nullptr)
    {
    }

    stats::StatGroup root{"t"};
    PhysMem mem;
    Vmm vmm;
};

TEST_F(Vmm2MTest, HostFaultBacksWholeGroup)
{
    FrameId g = vmm.allocGuestDataFrame();
    ASSERT_TRUE(vmm.handleHostFault(frameAddr(g)));
    // The containing 2M group is backed with one 2M host mapping.
    FrameId group = g & ~std::uint64_t{511};
    auto m = vmm.hostPt().lookup(frameAddr(group));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, PageSize::Size2M);
    EXPECT_TRUE(isAligned(frameAddr(m->pfn), PageSize::Size2M));
    // Every frame of the group is backed contiguously.
    for (unsigned i = 0; i < 512; ++i)
        EXPECT_EQ(vmm.backing(group + i), m->pfn + i);
}

TEST_F(Vmm2MTest, EnsureDataBackedGrowsTableInsideGroup)
{
    // Nothing is backed yet, so backing the first data frame grows the
    // table from empty to the end of its 2M group inside
    // backDataFrame. ensureDataBacked must not read the slot through a
    // reference taken before that growth.
    FrameId g = vmm.allocGuestDataFrame();
    FrameId h = vmm.ensureDataBacked(g);
    ASSERT_NE(h, PhysMem::kNoFrame);
    EXPECT_EQ(h, vmm.backing(g));
    FrameId group = g & ~std::uint64_t{511};
    EXPECT_EQ(vmm.backing(group + 511), vmm.backing(group) + 511);
    // The next group grows the table again.
    FrameId next = vmm.allocGuestDataFrames(512);
    ASSERT_EQ(next, group + 512);
    FrameId last = vmm.ensureDataBacked(next + 511);
    ASSERT_NE(last, PhysMem::kNoFrame);
    EXPECT_EQ(last, vmm.backing(next + 511));
    EXPECT_EQ(vmm.backing(next), last - 511);
    EXPECT_EQ(vmm.ensureDataBacked(next + 511), last);
}

TEST_F(Vmm2MTest, PtFramesStillBacked4K)
{
    FrameId g = vmm.allocGuestPtFrame();
    auto m = vmm.hostPt().lookup(frameAddr(g));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->size, PageSize::Size4K);
}

} // namespace
} // namespace ap
