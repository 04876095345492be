/**
 * @file
 * Unit tests for the memory hierarchy: latencies, MSHR merging, delayed
 * fills, store-at-commit semantics.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/hierarchy.hh"

namespace smtavf
{
namespace
{

MemConfig
table1Mem()
{
    return MemConfig{};
}

TEST(HierarchyTest, Dl1HitIsOneCycle)
{
    MemHierarchy h(table1Mem());
    h.dl1().fill(0x1000, 0, 0);
    h.dtlb().prefill(0x1000, 0);
    auto out = h.load(0, 0x1000, 4, 10);
    EXPECT_FALSE(out.l1Miss);
    EXPECT_EQ(out.ready, 11u);
}

TEST(HierarchyTest, L2HitPaysL2Latency)
{
    MemHierarchy h(table1Mem());
    h.l2().fill(0x1000, 0, 0);
    h.dtlb().prefill(0x1000, 0);
    auto out = h.load(0, 0x1000, 4, 10);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_FALSE(out.l2Miss);
    EXPECT_EQ(out.ready, 10u + 12u);
}

TEST(HierarchyTest, FullMissPaysMemoryLatency)
{
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    auto out = h.load(0, 0x5000, 4, 10);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_TRUE(out.l2Miss);
    EXPECT_EQ(out.ready, 10u + 200u);
}

TEST(HierarchyTest, TlbMissAddsPenalty)
{
    MemHierarchy h(table1Mem());
    h.dl1().fill(0x1000, 0, 0);
    auto out = h.load(0, 0x1000, 4, 10);
    // First access to this page: TLB miss on top of the DL1 hit.
    EXPECT_TRUE(out.tlbMiss);
    EXPECT_EQ(out.ready, 11u + 200u);
    auto out2 = h.load(0, 0x1000, 4, 20);
    EXPECT_FALSE(out2.tlbMiss);
}

TEST(HierarchyTest, MshrMergesSameLine)
{
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    auto a = h.load(0, 0x5000, 4, 10);
    auto b = h.load(0, 0x5008, 4, 15); // same 64B line, already in flight
    EXPECT_TRUE(b.l1Miss);
    EXPECT_EQ(b.ready, a.ready); // merged: same fill
}

TEST(HierarchyTest, DelayedFillLandsAfterLatency)
{
    MemHierarchy h(table1Mem());
    h.load(0, 0x5000, 4, 10);
    h.tick(100);
    EXPECT_FALSE(h.dl1().probe(0x5000)) << "fill must not land early";
    h.tick(210);
    EXPECT_TRUE(h.dl1().probe(0x5000));
    EXPECT_TRUE(h.l2().probe(0x5000));
}

TEST(HierarchyTest, SecondAccessAfterFillHits)
{
    MemHierarchy h(table1Mem());
    h.load(0, 0x5000, 4, 10);
    h.tick(210);
    auto out = h.load(0, 0x5000, 4, 220);
    EXPECT_FALSE(out.l1Miss);
}

TEST(HierarchyTest, L2MshrMergesAcrossL1Lines)
{
    MemHierarchy h(table1Mem());
    // Two different 64B DL1 lines inside the same 128B L2 line.
    h.dtlb().prefill(0x5000, 0);
    auto a = h.load(0, 0x5000, 4, 10);
    auto b = h.load(0, 0x5040, 4, 12);
    EXPECT_TRUE(a.l2Miss);
    EXPECT_TRUE(b.l2Miss);
    EXPECT_EQ(b.ready, a.ready); // merged at the L2 MSHR
}

TEST(HierarchyTest, StoreCommitWritesWhenFillLands)
{
    MemHierarchy h(table1Mem());
    auto out = h.storeCommit(0, 0x5000, 8, 10);
    EXPECT_TRUE(out.l1Miss);
    h.tick(out.ready);
    EXPECT_TRUE(h.dl1().probe(0x5000));
    // The line must be dirty: evicting it reports a writeback.
    struct DirtyProbe : CacheObserver
    {
        bool sawDirtyEvict = false;
        void onFill(std::uint32_t, Addr, ThreadId, Cycle) override {}
        void onAccess(std::uint32_t, Addr, std::uint32_t, bool, ThreadId,
                      Cycle) override
        {
        }
        void onEvict(std::uint32_t, bool dirty, Cycle) override
        {
            sawDirtyEvict |= dirty;
        }
    } probe;
    h.dl1().setObserver(&probe);
    h.dl1().flushAll(500);
    EXPECT_TRUE(probe.sawDirtyEvict);
}

TEST(HierarchyTest, FetchPathUsesIl1)
{
    MemHierarchy h(table1Mem());
    auto out = h.fetch(0, 0x400000, 10);
    EXPECT_TRUE(out.l1Miss);
    h.tick(out.ready);
    auto out2 = h.fetch(0, 0x400000, out.ready + 1);
    EXPECT_FALSE(out2.l1Miss);
    EXPECT_FALSE(out2.tlbMiss);
}

TEST(HierarchyTest, TranslateDataOnlyTouchesDtlb)
{
    MemHierarchy h(table1Mem());
    EXPECT_EQ(h.translateData(0, 0x9000, 10), 200u);
    EXPECT_EQ(h.translateData(0, 0x9000, 11), 0u);
    EXPECT_EQ(h.dl1().hits() + h.dl1().misses(), 0u);
}

TEST(HierarchyTest, FinalizeDrainsEverything)
{
    MemHierarchy h(table1Mem());
    h.load(0, 0x5000, 4, 10);
    h.storeCommit(0, 0x7000, 4, 11);
    h.finalize(50);
    EXPECT_EQ(h.outstandingDl1Misses(), 0u);
    EXPECT_FALSE(h.dl1().probe(0x5000)); // flushed after drain
}

/** Keeps the set of slots an observed cache holds. */
struct ResidencyRecorder : CacheObserver
{
    std::set<std::uint32_t> resident;
    std::size_t fills = 0;
    std::size_t evictions = 0;

    void
    onFill(std::uint32_t slot, Addr, ThreadId, Cycle) override
    {
        resident.insert(slot);
        ++fills;
    }
    void onAccess(std::uint32_t, Addr, std::uint32_t, bool, ThreadId,
                  Cycle) override
    {
    }
    void
    onEvict(std::uint32_t slot, bool, Cycle) override
    {
        resident.erase(slot);
        ++evictions;
    }
};

TEST(HierarchyTest, FinalizeEvictsEveryObservedL2Line)
{
    MemHierarchy h(table1Mem());
    ResidencyRecorder rec;
    h.l2().setObserver(&rec);
    h.l2().fill(0x20000, 1, 5);
    auto a = h.load(0, 0x5000, 4, 10);
    h.tick(a.ready);              // this L2 fill has landed
    h.load(0, 0x9000, 4, a.ready); // this one is still outstanding
    ASSERT_FALSE(rec.resident.empty());
    h.finalize(a.ready + 1);
    EXPECT_EQ(rec.fills, 3u);
    EXPECT_EQ(rec.evictions, rec.fills);
    EXPECT_TRUE(rec.resident.empty());
}

TEST(HierarchyTest, FinalizeLeavesUnobservedL2Alone)
{
    MemHierarchy h(table1Mem());
    h.l2().fill(0x20000, 1, 5);
    h.finalize(50);
    EXPECT_TRUE(h.l2().probe(0x20000));
}

TEST(HierarchyTest, ThreadsDoNotShareTlbEntries)
{
    MemHierarchy h(table1Mem());
    h.load(0, 0x1000, 4, 1);
    auto out = h.load(1, 0x1000, 4, 300);
    EXPECT_TRUE(out.tlbMiss);
}

TEST(HierarchyTest, MergedOpsApplyWhenFillLands)
{
    // Two loads and a store merge into one outstanding DL1 miss; when the
    // fill lands, the store's write must be applied (line ends up dirty).
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    auto a = h.load(0, 0x5000, 4, 10);
    h.storeCommit(0, 0x5008, 4, 12);
    h.load(0, 0x5010, 4, 14);
    h.tick(a.ready);
    ASSERT_TRUE(h.dl1().probe(0x5000));

    struct DirtyProbe : CacheObserver
    {
        bool dirty = false;
        void onFill(std::uint32_t, Addr, ThreadId, Cycle) override {}
        void onAccess(std::uint32_t, Addr, std::uint32_t, bool, ThreadId,
                      Cycle) override
        {
        }
        void onEvict(std::uint32_t, bool d, Cycle) override { dirty |= d; }
    } probe;
    h.dl1().setObserver(&probe);
    h.dl1().flushAll(1000);
    EXPECT_TRUE(probe.dirty);
}

TEST(HierarchyTest, IndependentLinesMissIndependently)
{
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    h.dtlb().prefill(0x9000, 0);
    auto a = h.load(0, 0x5000, 4, 10);
    auto b = h.load(0, 0x9000, 4, 11);
    EXPECT_EQ(a.ready, 210u);
    EXPECT_EQ(b.ready, 211u); // its own MSHR, its own latency
}

TEST(HierarchyTest, L1FillAfterL2FillHitsL2)
{
    // A second DL1 miss to a line whose L2 fill already landed pays only
    // the L2 latency.
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    h.load(0, 0x5000, 4, 10); // to DRAM; L2 + DL1 fill at 210
    h.tick(210);
    // Evict the DL1 copy by filling conflicting lines in its set.
    Addr stride = h.dl1().numSets() * 64ull;
    for (int w = 0; w < 5; ++w)
        h.dl1().fill(0x5000 + (w + 1) * stride, 0, 211);
    ASSERT_FALSE(h.dl1().probe(0x5000));
    auto out = h.load(0, 0x5000, 4, 300);
    EXPECT_TRUE(out.l1Miss);
    EXPECT_FALSE(out.l2Miss);
    EXPECT_EQ(out.ready, 312u);
}

TEST(HierarchyTest, OutstandingMissCountTracksMshrs)
{
    MemHierarchy h(table1Mem());
    h.dtlb().prefill(0x5000, 0);
    h.dtlb().prefill(0x9000, 0);
    EXPECT_EQ(h.outstandingDl1Misses(), 0u);
    h.load(0, 0x5000, 4, 10);
    h.load(0, 0x9000, 4, 11);
    EXPECT_EQ(h.outstandingDl1Misses(), 2u);
    h.load(0, 0x5008, 4, 12); // merges
    EXPECT_EQ(h.outstandingDl1Misses(), 2u);
    h.tick(300);
    EXPECT_EQ(h.outstandingDl1Misses(), 0u);
}

} // namespace
} // namespace smtavf
