/**
 * @file
 * Unit tests for the six fetch policies against a scripted PolicyContext.
 */

#include <gtest/gtest.h>

#include <array>
#include <typeinfo>
#include <utility>

#include "policy/dg.hh"
#include "policy/dwarn.hh"
#include "policy/flush.hh"
#include "policy/icount.hh"
#include "policy/pdg.hh"
#include "policy/prat.hh"
#include "policy/pstall.hh"
#include "policy/rat.hh"
#include "policy/round_robin.hh"
#include "policy/stall.hh"

namespace smtavf
{
namespace
{

/** Scripted core-state stub. */
class FakeContext : public PolicyContext
{
  public:
    explicit FakeContext(unsigned n) : n_(n) {}

    unsigned numThreads() const override { return n_; }
    unsigned inFlightCount(ThreadId t) const override { return icount[t]; }
    unsigned
    inFlightCorrectPath(ThreadId t) const override
    {
        return icount[t] > wrongPath[t] ? icount[t] - wrongPath[t] : 0;
    }
    unsigned outstandingL1D(ThreadId t) const override { return l1[t]; }
    unsigned outstandingL2D(ThreadId t) const override { return l2[t]; }

    void
    flushAfter(ThreadId tid, SeqNum seq) override
    {
        flushedTid = tid;
        flushedSeq = seq;
        ++flushCalls;
    }

    std::array<unsigned, maxContexts> icount{};
    std::array<unsigned, maxContexts> wrongPath{};
    std::array<unsigned, maxContexts> l1{};
    std::array<unsigned, maxContexts> l2{};
    ThreadId flushedTid = invalidThread;
    SeqNum flushedSeq = 0;
    int flushCalls = 0;

  private:
    unsigned n_;
};

DynInstr
makeLoad(ThreadId tid, SeqNum seq, Addr pc)
{
    DynInstr in;
    in.tid = tid;
    in.seq = seq;
    in.pc = pc;
    in.op = OpClass::Load;
    return in;
}

TEST(IcountPolicyTest, OrdersByInFlightCount)
{
    FakeContext ctx(3);
    ctx.icount = {5, 1, 3};
    IcountPolicy p(ctx);
    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{1, 2, 0}));
}

TEST(IcountPolicyTest, StableOnTies)
{
    FakeContext ctx(3);
    ctx.icount = {2, 2, 2};
    IcountPolicy p(ctx);
    EXPECT_EQ(p.fetchOrder(0), (std::vector<ThreadId>{0, 1, 2}));
}

TEST(RoundRobinPolicyTest, RotatesWithCycle)
{
    FakeContext ctx(3);
    RoundRobinPolicy p(ctx);
    EXPECT_EQ(p.fetchOrder(0)[0], 0);
    EXPECT_EQ(p.fetchOrder(1)[0], 1);
    EXPECT_EQ(p.fetchOrder(2)[0], 2);
    EXPECT_EQ(p.fetchOrder(3)[0], 0);
}

TEST(StallPolicyTest, GatesL2MissingThreads)
{
    FakeContext ctx(3);
    ctx.l2 = {0, 2, 0};
    StallPolicy p(ctx);
    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{0, 2}));
}

TEST(StallPolicyTest, NeverSilencesEveryone)
{
    FakeContext ctx(2);
    ctx.l2 = {1, 1};
    ctx.icount = {4, 2};
    StallPolicy p(ctx);
    auto order = p.fetchOrder(0);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1) << "falls back to ICOUNT order";
}

TEST(DgPolicyTest, GatesAtThreshold)
{
    FakeContext ctx(3);
    ctx.l1 = {0, 1, 2};
    DgPolicy p(ctx, 2);
    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{0, 1}));
}

TEST(DgPolicyTest, FallsBackWhenAllGated)
{
    FakeContext ctx(2);
    ctx.l1 = {3, 3};
    DgPolicy p(ctx, 2);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(DWarnPolicyTest, DeprioritizesButNeverGates)
{
    FakeContext ctx(4);
    ctx.icount = {1, 2, 3, 4};
    ctx.l1 = {1, 0, 0, 0};
    ctx.l2 = {0, 0, 1, 0};
    DWarnPolicy p(ctx);
    auto order = p.fetchOrder(0);
    ASSERT_EQ(order.size(), 4u);
    // Clean threads (1, 3) first by icount, then warned threads (0, 2).
    EXPECT_EQ(order, (std::vector<ThreadId>{1, 3, 0, 2}));
}

TEST(FlushPolicyTest, L2MissTriggersFlushAndGate)
{
    FakeContext ctx(2);
    FlushPolicy p(ctx);
    auto load = makeLoad(1, 42, 0x100);
    p.onLoadIssued(load, true, true);
    EXPECT_EQ(ctx.flushCalls, 1);
    EXPECT_EQ(ctx.flushedTid, 1);
    EXPECT_EQ(ctx.flushedSeq, 42u);
    EXPECT_EQ(p.flushes(), 1u);

    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{0})) << "thread 1 gated";

    p.onLoadDone(load, true, true);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u) << "gate lifted on data return";
}

TEST(FlushPolicyTest, L1OnlyMissDoesNotFlush)
{
    FakeContext ctx(2);
    FlushPolicy p(ctx);
    auto load = makeLoad(0, 7, 0x100);
    p.onLoadIssued(load, true, false);
    EXPECT_EQ(ctx.flushCalls, 0);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(FlushPolicyTest, NestedMissDoesNotDoubleFlush)
{
    FakeContext ctx(2);
    FlushPolicy p(ctx);
    auto a = makeLoad(0, 10, 0x100);
    auto b = makeLoad(0, 5, 0x200);
    p.onLoadIssued(a, true, true);
    p.onLoadIssued(b, true, true); // already gated
    EXPECT_EQ(ctx.flushCalls, 1);
    // Only the gating load's return lifts the gate.
    p.onLoadDone(b, true, true);
    EXPECT_EQ(p.fetchOrder(0).size(), 1u);
    p.onLoadDone(a, true, true);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(PdgPolicyTest, PredictedMissesGateBeforeIssue)
{
    FakeContext ctx(2);
    PdgPolicy p(ctx, 2, 64);
    // Train the predictor: loads at this PC miss.
    for (int i = 0; i < 4; ++i) {
        auto l = makeLoad(0, i, 0x500);
        p.onLoadIssued(l, true, false);
    }
    // Now fetch two loads at the missing PC: predicted pressure = 2.
    auto f1 = makeLoad(0, 100, 0x500);
    auto f2 = makeLoad(0, 101, 0x500);
    p.onFetch(f1);
    p.onFetch(f2);
    EXPECT_EQ(p.predictedInFlight(0), 2u);
    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{1}));
}

TEST(PdgPolicyTest, ActualHitCorrectsPrediction)
{
    FakeContext ctx(2);
    PdgPolicy p(ctx, 2, 64);
    for (int i = 0; i < 4; ++i) {
        auto l = makeLoad(0, i, 0x500);
        p.onLoadIssued(l, true, false);
    }
    auto f = makeLoad(0, 100, 0x500);
    p.onFetch(f);
    EXPECT_EQ(p.predictedInFlight(0), 1u);
    p.onLoadIssued(f, false, false); // actually hit
    EXPECT_EQ(p.predictedInFlight(0), 0u);
    p.onLoadDone(f, false, false); // must not double-decrement
    EXPECT_EQ(p.predictedInFlight(0), 0u);
}

TEST(PdgPolicyTest, SquashBeforeIssueReleasesPrediction)
{
    FakeContext ctx(1);
    PdgPolicy p(ctx, 2, 64);
    for (int i = 0; i < 4; ++i) {
        auto l = makeLoad(0, i, 0x500);
        p.onLoadIssued(l, true, false);
    }
    auto f = makeLoad(0, 100, 0x500);
    p.onFetch(f);
    EXPECT_EQ(p.predictedInFlight(0), 1u);
    p.onLoadDone(f, false, false); // squashed pre-issue
    EXPECT_EQ(p.predictedInFlight(0), 0u);
}

TEST(PStallPolicyTest, PredictedL2MissGatesAtFetch)
{
    FakeContext ctx(2);
    PStallPolicy p(ctx, 64);
    // Train: loads at this PC L2-miss.
    for (int i = 0; i < 4; ++i) {
        auto l = makeLoad(0, i, 0x700);
        p.onLoadIssued(l, true, true);
    }
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
    auto f = makeLoad(0, 100, 0x700);
    p.onFetch(f);
    EXPECT_TRUE(p.predictGateActive(0));
    EXPECT_EQ(p.fetchOrder(0), (std::vector<ThreadId>{1}));
    // Data returned: gate lifts.
    p.onLoadDone(f, true, true);
    EXPECT_FALSE(p.predictGateActive(0));
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(PStallPolicyTest, MispredictedGateLiftsOnActualHit)
{
    FakeContext ctx(1);
    PStallPolicy p(ctx, 64);
    for (int i = 0; i < 4; ++i) {
        auto l = makeLoad(0, i, 0x700);
        p.onLoadIssued(l, true, true);
    }
    auto f = makeLoad(0, 100, 0x700);
    p.onFetch(f);
    EXPECT_TRUE(p.predictGateActive(0));
    p.onLoadIssued(f, false, false); // actually hit everywhere
    EXPECT_FALSE(p.predictGateActive(0));
}

TEST(PStallPolicyTest, GatesOnActualOutstandingL2Misses)
{
    FakeContext ctx(2);
    ctx.l2 = {1, 0};
    PStallPolicy p(ctx, 64);
    EXPECT_EQ(p.fetchOrder(0), (std::vector<ThreadId>{1}));
}

TEST(PStallPolicyTest, NeverSilencesEveryone)
{
    FakeContext ctx(2);
    ctx.l2 = {1, 1};
    PStallPolicy p(ctx, 64);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(RatPolicyTest, OrdersByCorrectPathPopulation)
{
    FakeContext ctx(3);
    ctx.icount = {20, 20, 20};
    ctx.wrongPath = {15, 5, 0}; // correct-path: 5, 15, 20
    RatPolicy p(ctx);
    auto order = p.fetchOrder(0);
    EXPECT_EQ(order, (std::vector<ThreadId>{0, 1, 2}));
}

TEST(RatPolicyTest, GatesAboveAceCap)
{
    FakeContext ctx(2);
    ctx.icount = {50, 10};
    RatPolicy p(ctx, 30);
    EXPECT_EQ(p.aceCap(), 30u);
    EXPECT_EQ(p.fetchOrder(0), (std::vector<ThreadId>{1}));
}

TEST(RatPolicyTest, DefaultCapDerivesFromThreadCount)
{
    FakeContext ctx(4);
    RatPolicy p(ctx);
    EXPECT_EQ(p.aceCap(), 48u); // 2 x 96 / 4
}

TEST(RatPolicyTest, FallsBackWhenAllAboveCap)
{
    FakeContext ctx(2);
    ctx.icount = {50, 60};
    RatPolicy p(ctx, 30);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

// PRAT against the default PolicyContext surface (no protection, no
// occupancy, no ledger): every weight is the conservative 256/256, so
// it behaves exactly like RAT. The deeper protection-aware properties
// live in tests/test_policy_properties.cc.
TEST(PRatPolicyTest, UnprotectedContextMatchesRatSemantics)
{
    FakeContext ctx(2);
    ctx.icount = {50, 10};
    PRatPolicy p(ctx, 30);
    EXPECT_EQ(p.aceCap(), 30u);
    EXPECT_EQ(p.fetchOrder(0), (std::vector<ThreadId>{1}));
    EXPECT_EQ(p.throttledThreadCycles(), 1u);
}

TEST(PRatPolicyTest, DefaultCapMatchesRatDerivation)
{
    FakeContext ctx(4);
    PRatPolicy p(ctx);
    RatPolicy r(ctx);
    EXPECT_EQ(p.aceCap(), r.aceCap());
    EXPECT_EQ(p.epoch(), 4096u);
}

TEST(PRatPolicyTest, FallsBackWhenAllAboveCap)
{
    FakeContext ctx(2);
    ctx.icount = {50, 60};
    PRatPolicy p(ctx, 30);
    EXPECT_EQ(p.fetchOrder(0).size(), 2u);
}

TEST(FactoryTest, BuildsEveryKindWithMatchingName)
{
    FakeContext ctx(2);
    const std::pair<FetchPolicyKind, const std::type_info &> kinds[] = {
        {FetchPolicyKind::RoundRobin, typeid(RoundRobinPolicy)},
        {FetchPolicyKind::Icount, typeid(IcountPolicy)},
        {FetchPolicyKind::Flush, typeid(FlushPolicy)},
        {FetchPolicyKind::Stall, typeid(StallPolicy)},
        {FetchPolicyKind::Dg, typeid(DgPolicy)},
        {FetchPolicyKind::Pdg, typeid(PdgPolicy)},
        {FetchPolicyKind::DWarn, typeid(DWarnPolicy)},
        {FetchPolicyKind::PStall, typeid(PStallPolicy)},
        {FetchPolicyKind::Rat, typeid(RatPolicy)},
        {FetchPolicyKind::PRat, typeid(PRatPolicy)}};
    for (const auto &[kind, type] : kinds) {
        auto p = makeFetchPolicy(kind, ctx);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(typeid(*p) == type) << fetchPolicyName(kind);
        EXPECT_FALSE(p->fetchOrder(0).empty());
    }
}

} // namespace
} // namespace smtavf
