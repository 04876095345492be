/**
 * @file
 * Unit tests for rename map, ROB, IQ, LSQ and FU pool.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/fu_pool.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

/** A fresh instruction in storage that outlives every queue under test. */
DynInstr *
makeInstr(ThreadId tid, SeqNum seq, OpClass op = OpClass::IntAlu)
{
    static std::deque<DynInstr> storage;
    DynInstr *in = &storage.emplace_back();
    in->tid = tid;
    in->seq = seq;
    in->globalSeq = seq;
    in->op = op;
    return in;
}

// ---- rename ---------------------------------------------------------------

TEST(RenameMapTest, UnmappedLookupIsInvalid)
{
    RenameMap m;
    EXPECT_EQ(m.lookup(5), invalidReg);
    EXPECT_EQ(m.lookup(invalidReg), invalidReg);
}

TEST(RenameMapTest, ZeroRegistersNeverMap)
{
    RenameMap m;
    m.set(0, 17);
    EXPECT_EQ(m.lookup(0), invalidReg);
    EXPECT_EQ(m.lookup(numArchIntRegs), invalidReg);
}

TEST(RenameMapTest, SetReturnsDisplacedMapping)
{
    RenameMap m;
    EXPECT_EQ(m.set(5, 100), invalidReg);
    EXPECT_EQ(m.set(5, 101), 100);
    EXPECT_EQ(m.lookup(5), 101);
}

TEST(RenameMapTest, WalkBackRecovery)
{
    RenameMap m;
    m.set(5, 100);
    auto old = m.set(5, 101); // speculative
    m.set(5, old);            // squash walk-back
    EXPECT_EQ(m.lookup(5), 100);
}

TEST(RenameMapTest, BadRegisterPanics)
{
    ThrowGuard guard;
    RenameMap m;
    EXPECT_THROW(m.lookup(numArchRegs), SimError);
    EXPECT_THROW(m.set(-2, 3), SimError);
}

// ---- ROB -------------------------------------------------------------------

TEST(RobTest, InOrderPushPop)
{
    Rob rob(4);
    auto a = makeInstr(0, 1);
    auto b = makeInstr(0, 2);
    rob.push(a);
    rob.push(b);
    EXPECT_EQ(rob.front(), a);
    rob.popFront();
    EXPECT_EQ(rob.front(), b);
}

TEST(RobTest, FullAndCapacity)
{
    Rob rob(2);
    rob.push(makeInstr(0, 1));
    EXPECT_FALSE(rob.full());
    rob.push(makeInstr(0, 2));
    EXPECT_TRUE(rob.full());
    ThrowGuard guard;
    EXPECT_THROW(rob.push(makeInstr(0, 3)), SimError);
}

TEST(RobTest, OutOfOrderPushPanics)
{
    ThrowGuard guard;
    Rob rob(4);
    rob.push(makeInstr(0, 5));
    EXPECT_THROW(rob.push(makeInstr(0, 5)), SimError);
    EXPECT_THROW(rob.push(makeInstr(0, 4)), SimError);
}

TEST(RobTest, SquashAfterWalksYoungestFirst)
{
    Rob rob(8);
    for (SeqNum s = 1; s <= 5; ++s)
        rob.push(makeInstr(0, s));
    std::vector<SeqNum> squashed;
    rob.squashAfter(2, [&](DynInstr *in) {
        squashed.push_back(in->seq);
    });
    EXPECT_EQ(squashed, (std::vector<SeqNum>{5, 4, 3}));
    EXPECT_EQ(rob.size(), 2u);
}

TEST(RobTest, EmptyFrontIsNull)
{
    Rob rob(2);
    EXPECT_EQ(rob.front(), nullptr);
    ThrowGuard guard;
    EXPECT_THROW(rob.popFront(), SimError);
}

// ---- IQ --------------------------------------------------------------------

TEST(IqTest, CapacityAndFreeSlots)
{
    IssueQueue iq(3);
    EXPECT_EQ(iq.freeSlots(), 3u);
    iq.insert(makeInstr(0, 1));
    EXPECT_EQ(iq.freeSlots(), 2u);
    EXPECT_FALSE(iq.full());
}

TEST(IqTest, InsertSetsInIqFlag)
{
    IssueQueue iq(4);
    auto in = makeInstr(0, 1);
    iq.insert(in);
    EXPECT_TRUE(in->inIq);
    iq.remove(in);
    EXPECT_FALSE(in->inIq);
    EXPECT_EQ(iq.size(), 0u);
}

TEST(IqTest, RemoveUnknownPanics)
{
    ThrowGuard guard;
    IssueQueue iq(4);
    EXPECT_THROW(iq.remove(makeInstr(0, 1)), SimError);
}

TEST(IqTest, IterationIsAgeOrdered)
{
    IssueQueue iq(8);
    iq.insert(makeInstr(0, 1));
    iq.insert(makeInstr(1, 2));
    iq.insert(makeInstr(0, 3));
    SeqNum prev = 0;
    for (const auto &in : iq) {
        EXPECT_GT(in->globalSeq, prev);
        prev = in->globalSeq;
    }
}

// ---- LSQ -------------------------------------------------------------------

DynInstr *
makeMem(ThreadId tid, SeqNum seq, OpClass op, Addr addr, std::uint8_t size)
{
    auto in = makeInstr(tid, seq, op);
    in->memAddr = addr;
    in->memSize = size;
    return in;
}

TEST(LsqTest, RejectsNonMemInstr)
{
    ThrowGuard guard;
    Lsq lsq(4);
    EXPECT_THROW(lsq.push(makeInstr(0, 1, OpClass::IntAlu)), SimError);
}

TEST(LsqTest, LoadWaitsForOlderStoreIssue)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    auto load = makeMem(0, 2, OpClass::Load, 0x200, 4);
    lsq.push(store);
    lsq.push(load);
    EXPECT_FALSE(lsq.loadMayIssue(load));
    store->issued = true;
    EXPECT_TRUE(lsq.loadMayIssue(load));
}

TEST(LsqTest, ForwardingRequiresOverlap)
{
    Lsq lsq(8);
    auto store = makeMem(0, 1, OpClass::Store, 0x100, 4);
    store->issued = true;
    auto hit = makeMem(0, 2, OpClass::Load, 0x100, 4);
    auto partial = makeMem(0, 3, OpClass::Load, 0x102, 4);
    auto miss = makeMem(0, 4, OpClass::Load, 0x104, 4);
    lsq.push(store);
    lsq.push(hit);
    lsq.push(partial);
    lsq.push(miss);
    EXPECT_TRUE(lsq.canForward(hit));
    EXPECT_TRUE(lsq.canForward(partial)); // byte ranges intersect
    EXPECT_FALSE(lsq.canForward(miss));
}

TEST(LsqTest, YoungerStoresDoNotForwardBackwards)
{
    Lsq lsq(8);
    auto load = makeMem(0, 1, OpClass::Load, 0x100, 4);
    auto store = makeMem(0, 2, OpClass::Store, 0x100, 4);
    store->issued = true;
    lsq.push(load);
    lsq.push(store);
    EXPECT_FALSE(lsq.canForward(load));
    EXPECT_TRUE(lsq.loadMayIssue(load));
}

TEST(LsqTest, CommitMustBeOldest)
{
    ThrowGuard guard;
    Lsq lsq(8);
    auto a = makeMem(0, 1, OpClass::Load, 0x0, 4);
    auto b = makeMem(0, 2, OpClass::Load, 0x8, 4);
    lsq.push(a);
    lsq.push(b);
    EXPECT_THROW(lsq.popCommitted(b), SimError);
    lsq.popCommitted(a);
    lsq.popCommitted(b);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(LsqTest, SquashDropsYoungTail)
{
    Lsq lsq(8);
    for (SeqNum s = 1; s <= 4; ++s)
        lsq.push(makeMem(0, s, OpClass::Load, s * 8, 4));
    lsq.squashAfter(2);
    EXPECT_EQ(lsq.size(), 2u);
}

TEST(LsqTest, FullBlocksPush)
{
    ThrowGuard guard;
    Lsq lsq(1);
    lsq.push(makeMem(0, 1, OpClass::Load, 0, 4));
    EXPECT_TRUE(lsq.full());
    EXPECT_THROW(lsq.push(makeMem(0, 2, OpClass::Load, 8, 4)), SimError);
}

// ---- FU pool ---------------------------------------------------------------

TEST(FuPoolTest, Table1Counts)
{
    FuPool pool(FuConfig{});
    EXPECT_EQ(pool.config().total(), 28u);
    EXPECT_EQ(pool.totalBits(), 28u * bits::fuLatch);
    EXPECT_EQ(pool.freeUnits(FuType::IntAlu, 0), 8u);
    EXPECT_EQ(pool.freeUnits(FuType::MemPort, 0), 4u);
}

TEST(FuPoolTest, AcquireExhaustsUnits)
{
    FuPool pool(FuConfig{});
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_FALSE(pool.acquire(FuType::IntAlu, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntAlu, 6, 1)) << "freed next cycle";
}

TEST(FuPoolTest, DividerOccupiesForFullLatency)
{
    FuPool pool({1, 1, 1, 1, 1});
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 0, fuOccupancy(
                                                       OpClass::IntDiv)));
    EXPECT_FALSE(pool.acquire(FuType::IntMulDiv, 5, 1));
    EXPECT_TRUE(pool.acquire(FuType::IntMulDiv, 20, 1));
}

TEST(FuPoolTest, NoneTypeAlwaysAvailable)
{
    FuPool pool({1, 1, 1, 1, 1});
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(pool.acquire(FuType::None, 0, 1));
}

class FuMapping : public ::testing::TestWithParam<int>
{
};

TEST_P(FuMapping, EveryOpClassHasTypeLatencyOccupancy)
{
    auto op = static_cast<OpClass>(GetParam());
    EXPECT_NO_THROW(fuTypeFor(op));
    EXPECT_GE(execLatency(op), 1u);
    EXPECT_GE(fuOccupancy(op), 1u);
    EXPECT_LE(fuOccupancy(op), execLatency(op));
}

INSTANTIATE_TEST_SUITE_P(AllOps, FuMapping,
                         ::testing::Range(0,
                                          static_cast<int>(numOpClasses)));

TEST(FuMappingFixed, ExpectedAssignments)
{
    EXPECT_EQ(fuTypeFor(OpClass::BranchCond), FuType::IntAlu);
    EXPECT_EQ(fuTypeFor(OpClass::Load), FuType::MemPort);
    EXPECT_EQ(fuTypeFor(OpClass::FpDiv), FuType::FpMulDiv);
    EXPECT_EQ(fuTypeFor(OpClass::Nop), FuType::None);
    EXPECT_EQ(execLatency(OpClass::IntDiv), 20u);
    EXPECT_EQ(fuOccupancy(OpClass::FpMult), 1u) << "pipelined";
    EXPECT_EQ(fuOccupancy(OpClass::FpDiv), 12u) << "unpipelined";
}

} // namespace
} // namespace smtavf
