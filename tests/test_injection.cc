/**
 * @file
 * Unit and integration tests for the fault-injection validation engine.
 */

#include <gtest/gtest.h>

#include "avf/injection.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

DynInstr
rec(ThreadId tid, OpClass op, RegIndex dest, RegIndex src1 = invalidReg,
    RegIndex src2 = invalidReg, Addr addr = 0, std::uint8_t size = 0)
{
    DynInstr in;
    in.tid = tid;
    in.op = op;
    in.destReg = dest;
    in.srcReg1 = src1;
    in.srcReg2 = src2;
    in.memAddr = addr;
    in.memSize = size;
    return in;
}

CommitTrace
makeTrace(std::initializer_list<DynInstr> instrs)
{
    CommitTrace t;
    for (const auto &in : instrs)
        t.append(in);
    t.finalize();
    return t;
}

TEST(InjectionUnit, ImmediateOverwriteMasks)
{
    // r5 = ...; r5 = const (no read): the fault dies at the overwrite.
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::IntAlu, 5, 1, 2),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Masked);
}

TEST(InjectionUnit, TaintReachingBranchCorrupts)
{
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::BranchCond, invalidReg, 5, 2),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Corrupted);
}

TEST(InjectionUnit, TaintedStoreAddressCorrupts)
{
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::Store, invalidReg, 5, 7, 0x100, 4),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Corrupted);
}

TEST(InjectionUnit, PropagationThroughMemoryRoundTrip)
{
    // r5 tainted -> store [0x100] <- r5 -> r5 overwritten -> load r6 from
    // [0x100] -> branch on r6: corruption via memory.
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::Store, invalidReg, 1, 5, 0x100, 4),
        rec(0, OpClass::IntAlu, 5, 1, 2), // kills the register taint
        rec(0, OpClass::Load, 6, 1, invalidReg, 0x100, 4),
        rec(0, OpClass::BranchCond, invalidReg, 6, 1),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Corrupted);
}

TEST(InjectionUnit, MemoryOverwriteKillsTaint)
{
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::Store, invalidReg, 1, 5, 0x100, 4), // taints mem
        rec(0, OpClass::IntAlu, 5, 1, 2),                   // kills reg
        rec(0, OpClass::Store, invalidReg, 1, 7, 0x100, 4), // clean store
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Masked);
}

TEST(InjectionUnit, TransitiveDeadChainMasks)
{
    // r5 -> r6 (uses r5) -> both overwritten unread: FDD would call only
    // the *last* writes dead, but injection sees the whole chain masked.
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::IntAlu, 6, 5, 1),
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::IntAlu, 6, 1, 2),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Masked);
}

TEST(InjectionUnit, SurvivingTaintAtTraceEndCorrupts)
{
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(0, OpClass::IntAlu, 7, 1, 2),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Corrupted);
}

TEST(InjectionUnit, OtherThreadsDoNotPropagate)
{
    auto t = makeTrace({
        rec(0, OpClass::IntAlu, 5, 1, 2),
        rec(1, OpClass::BranchCond, invalidReg, 5, 2), // other thread
        rec(0, OpClass::IntAlu, 5, 1, 2),              // overwrite
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Masked);
}

TEST(InjectionUnit, NonWritingOriginIsSkipped)
{
    auto t = makeTrace({
        rec(0, OpClass::Store, invalidReg, 1, 2, 0x100, 4),
    });
    InjectionCampaign c(t);
    EXPECT_EQ(c.injectAt(0), InjectionOutcome::Skipped);
}

TEST(InjectionUnit, UnfinalizedTracePanics)
{
    ThrowGuard guard;
    CommitTrace t;
    t.append(rec(0, OpClass::IntAlu, 5, 1, 2));
    EXPECT_THROW(t.records(), SimError);
}

TEST(InjectionCampaignTest, DeterministicForSameSeed)
{
    auto cfg = table1Config(2);
    cfg.recordCommitTrace = true;
    auto r = runMix(cfg, findMix("2ctx-mix-A"), 15000);
    ASSERT_NE(r.commitTrace, nullptr);

    InjectionCampaign c(*r.commitTrace);
    CampaignRunner pool(2);
    auto a = runInjection(pool, c, 500, 42);
    auto b = runInjection(pool, c, 500, 42);
    EXPECT_EQ(a.corrupted, b.corrupted);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.trials, 500u);
}

TEST(InjectionCampaignTest, MaskingUpperBoundsFirstLevelDeadness)
{
    // Every FDD-dead instruction masks under injection, so the injection
    // masked rate must be at least the FDD dead fraction (the gap is the
    // transitive deadness FDD cannot see).
    auto cfg = table1Config(2);
    cfg.recordCommitTrace = true;
    auto r = runMix(cfg, findMix("2ctx-mix-A"), 20000);
    ASSERT_NE(r.commitTrace, nullptr);

    InjectionCampaign c(*r.commitTrace);
    CampaignRunner pool(2);
    auto res = runInjection(pool, c, 2000, 7);
    double fdd = r.stats.get("deadCode.fraction");
    EXPECT_GE(res.maskedRate() + 0.05, fdd);
    EXPECT_GT(res.maskedRate(), 0.0);
    EXPECT_GT(res.corruptionRate(), 0.3)
        << "most live values should matter";
}

TEST(InjectionCampaignTest, FddDeadOriginsAlwaysMask)
{
    auto cfg = table1Config(2);
    cfg.recordCommitTrace = true;
    auto r = runMix(cfg, findMix("2ctx-cpu-A"), 15000);
    ASSERT_NE(r.commitTrace, nullptr);

    InjectionCampaign c(*r.commitTrace);
    const auto &recs = r.commitTrace->records();
    unsigned checked = 0;
    for (std::size_t i = 0; i < recs.size() && checked < 300; ++i) {
        if (!recs[i].destDead)
            continue;
        ++checked;
        EXPECT_NE(c.injectAt(i), InjectionOutcome::Corrupted)
            << "record " << i << " is FDD-dead but corrupted";
    }
    EXPECT_GT(checked, 50u);
}

TEST(InjectionCampaignTest, TraceDisabledByDefault)
{
    auto r = runMix(findMix("2ctx-mix-A"), FetchPolicyKind::Icount, 5000);
    EXPECT_EQ(r.commitTrace, nullptr);
}

} // namespace
} // namespace smtavf
