/**
 * @file
 * Unit tests for gshare, BTB, RAS and the combined thread predictor.
 */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

// ---- gshare ---------------------------------------------------------------

TEST(GshareTest, RejectsBadGeometry)
{
    ThrowGuard guard;
    EXPECT_THROW(Gshare(1000, 10), SimError); // not a power of two
    EXPECT_THROW(Gshare(0, 10), SimError);
    EXPECT_THROW(Gshare(1024, 0), SimError);
    EXPECT_THROW(Gshare(1024, 30), SimError);
}

TEST(GshareTest, LearnsAlwaysTakenBranch)
{
    Gshare g(1024, 8);
    Addr pc = 0x1000;
    for (int i = 0; i < 50; ++i) {
        auto h = g.history();
        g.speculate(true);
        g.update(pc, true, h);
    }
    EXPECT_TRUE(g.predict(pc));
}

TEST(GshareTest, LearnsAlwaysNotTakenBranch)
{
    Gshare g(1024, 8);
    Addr pc = 0x2000;
    for (int i = 0; i < 50; ++i) {
        auto h = g.history();
        g.speculate(false);
        g.update(pc, false, h);
    }
    EXPECT_FALSE(g.predict(pc));
}

TEST(GshareTest, LearnsShortLoopPattern)
{
    // Pattern TTTN repeating: with 8 bits of history the exit position is
    // fully identifiable, so steady-state prediction is perfect.
    Gshare g(4096, 8);
    Addr pc = 0x3000;
    int mispredicts = 0;
    for (int iter = 0; iter < 400; ++iter) {
        bool taken = (iter % 4) != 3;
        bool pred = g.predict(pc);
        if (iter >= 200 && pred != taken)
            ++mispredicts;
        auto h = g.history();
        g.speculate(taken);
        g.update(pc, taken, h);
    }
    EXPECT_EQ(mispredicts, 0);
}

TEST(GshareTest, HistorySaveRestore)
{
    Gshare g(1024, 10);
    g.speculate(true);
    g.speculate(false);
    auto saved = g.history();
    g.speculate(true);
    g.speculate(true);
    g.restoreHistory(saved);
    EXPECT_EQ(g.history(), saved);
}

TEST(GshareTest, SpeculateReturnsPreviousHistory)
{
    Gshare g(1024, 10);
    auto before = g.history();
    auto returned = g.speculate(true);
    EXPECT_EQ(returned, before);
    EXPECT_EQ(g.history(), ((before << 1) | 1u) & 0x3ffu);
}

// ---- BTB -------------------------------------------------------------------

TEST(BtbTest, RejectsBadGeometry)
{
    ThrowGuard guard;
    EXPECT_THROW(Btb(0, 4), SimError);
    EXPECT_THROW(Btb(10, 4), SimError);  // not divisible
    EXPECT_THROW(Btb(2048, 3), SimError); // non-power-of-two sets
}

TEST(BtbTest, MissThenHitAfterUpdate)
{
    Btb btb(2048, 4);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000);
    auto t = btb.lookup(0x1000);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, 0x2000u);
}

TEST(BtbTest, UpdateOverwritesTarget)
{
    Btb btb(2048, 4);
    btb.update(0x1000, 0x2000);
    btb.update(0x1000, 0x3000);
    EXPECT_EQ(*btb.lookup(0x1000), 0x3000u);
}

TEST(BtbTest, LruEvictionWithinSet)
{
    Btb btb(8, 2); // 4 sets, 2 ways
    // Three branches mapping to the same set (stride = sets * 4 bytes).
    Addr a = 0x1000, b = 0x1000 + 4 * 4, c = 0x1000 + 8 * 4;
    btb.update(a, 1);
    btb.update(b, 2);
    btb.lookup(a); // a most recent
    btb.update(c, 3); // evicts b
    EXPECT_TRUE(btb.lookup(a).has_value());
    EXPECT_FALSE(btb.lookup(b).has_value());
    EXPECT_TRUE(btb.lookup(c).has_value());
}

TEST(BtbTest, CountsHitsAndMisses)
{
    Btb btb(2048, 4);
    btb.lookup(0x10);
    btb.update(0x10, 0x20);
    btb.lookup(0x10);
    EXPECT_EQ(btb.misses(), 1u);
    EXPECT_EQ(btb.hits(), 1u);
}

// ---- RAS -------------------------------------------------------------------

TEST(RasTest, PushPopLifo)
{
    Ras ras(32);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(RasTest, DepthSaturatesAtCapacity)
{
    Ras ras(4);
    for (int i = 0; i < 10; ++i)
        ras.push(i);
    EXPECT_EQ(ras.depth(), 4u);
}

TEST(RasTest, OverflowWrapsAndLosesOldest)
{
    Ras ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(RasTest, SaveRestoreRecoversPops)
{
    // Restore undoes pops exactly (the slots still hold their values).
    Ras ras(8);
    ras.push(0xa);
    ras.push(0xb);
    auto s = ras.save();
    ras.pop();
    ras.pop();
    ras.restore(s);
    EXPECT_EQ(ras.pop(), 0xbu);
    EXPECT_EQ(ras.pop(), 0xau);
}

TEST(RasTest, RestoreAfterOverwriteKeepsNewValue)
{
    // A push after the checkpoint overwrites the slot; like real hardware,
    // top/depth recovery cannot resurrect the overwritten entry.
    Ras ras(8);
    ras.push(0xa);
    ras.push(0xb);
    auto s = ras.save();
    ras.pop();
    ras.push(0xc); // lands in 0xb's slot
    ras.restore(s);
    EXPECT_EQ(ras.pop(), 0xcu);
    EXPECT_EQ(ras.pop(), 0xau);
}

TEST(RasTest, RejectsZeroEntries)
{
    ThrowGuard guard;
    EXPECT_THROW(Ras(0), SimError);
}

// ---- combined predictor ----------------------------------------------------

DynInstr
makeBranch(OpClass op, Addr pc, bool taken, Addr target)
{
    DynInstr in;
    in.op = op;
    in.pc = pc;
    in.branchTaken = taken;
    in.branchTarget = target;
    return in;
}

TEST(ThreadPredictorTest, UncondJumpLearnedAfterFirstSight)
{
    ThreadPredictor p(BranchConfig{});
    auto in = makeBranch(OpClass::BranchUncond, 0x100, true, 0x500);
    p.predict(in);
    EXPECT_TRUE(in.mispredicted); // BTB cold
    p.train(in);
    auto again = makeBranch(OpClass::BranchUncond, 0x100, true, 0x500);
    p.predict(again);
    EXPECT_FALSE(again.mispredicted);
}

TEST(ThreadPredictorTest, ReturnPredictedViaRas)
{
    ThreadPredictor p(BranchConfig{});
    auto call = makeBranch(OpClass::Call, 0x100, true, 0x900);
    p.predict(call);
    p.train(call);
    auto ret = makeBranch(OpClass::Return, 0x904, true, 0x104);
    p.predict(ret);
    EXPECT_FALSE(ret.mispredicted);
}

TEST(ThreadPredictorTest, MismatchedReturnMispredicts)
{
    ThreadPredictor p(BranchConfig{});
    auto ret = makeBranch(OpClass::Return, 0x904, true, 0xdead);
    p.predict(ret);
    EXPECT_TRUE(ret.mispredicted); // empty RAS predicts garbage
}

TEST(ThreadPredictorTest, SquashRecoverUndoesCallPush)
{
    ThreadPredictor p(BranchConfig{});
    auto call1 = makeBranch(OpClass::Call, 0x100, true, 0x900);
    p.predict(call1);
    // Wrong-path call fetched then squashed:
    auto call2 = makeBranch(OpClass::Call, 0x200, true, 0xa00);
    p.predict(call2);
    p.squashRecover(call2);
    auto ret = makeBranch(OpClass::Return, 0x904, true, 0x104);
    p.predict(ret);
    EXPECT_FALSE(ret.mispredicted)
        << "squashed call should not shift the RAS";
}

TEST(ThreadPredictorTest, SquashRecoverRestoresHistory)
{
    ThreadPredictor p(BranchConfig{});
    auto b1 = makeBranch(OpClass::BranchCond, 0x10, true, 0x40);
    p.predict(b1);
    auto before = b1.predHistory;
    auto b2 = makeBranch(OpClass::BranchCond, 0x20, false, 0x60);
    p.predict(b2);
    p.squashRecover(b2);
    // Refetching b2 must see the same history b2 saw the first time.
    auto b2_again = makeBranch(OpClass::BranchCond, 0x20, false, 0x60);
    p.predict(b2_again);
    EXPECT_EQ(b2_again.predHistory, b2.predHistory);
    (void)before;
}

TEST(ThreadPredictorTest, TracksMispredictRate)
{
    ThreadPredictor p(BranchConfig{});
    auto in = makeBranch(OpClass::BranchUncond, 0x100, true, 0x500);
    p.predict(in);
    EXPECT_EQ(p.branches(), 1u);
    EXPECT_EQ(p.mispredicts(), 1u);
    EXPECT_DOUBLE_EQ(p.mispredictRate(), 1.0);
}

TEST(ThreadPredictorTest, IgnoresNonBranches)
{
    ThreadPredictor p(BranchConfig{});
    DynInstr in;
    in.op = OpClass::IntAlu;
    p.predict(in);
    p.train(in);
    EXPECT_EQ(p.branches(), 0u);
    EXPECT_FALSE(in.mispredicted);
}

TEST(ThreadPredictorTest, BiasedCondBranchConverges)
{
    ThreadPredictor p(BranchConfig{});
    int late_miss = 0;
    for (int i = 0; i < 200; ++i) {
        auto in = makeBranch(OpClass::BranchCond, 0x40, true, 0x80);
        p.predict(in);
        p.train(in);
        if (i >= 50)
            late_miss += in.mispredicted;
    }
    EXPECT_EQ(late_miss, 0);
}

} // namespace
} // namespace smtavf
