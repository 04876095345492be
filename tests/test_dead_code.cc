/**
 * @file
 * Unit tests for deferred first-level dynamic dead-code classification,
 * and for the residency record (core/smt_core.hh residencyAt()) whose
 * intervals the analyzer forwards.
 */

#include <gtest/gtest.h>

#include <array>

#include "avf/dead_code.hh"
#include "avf/injection.hh"
#include "core/smt_core.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

DynInstr
makeInstr(ThreadId tid, RegIndex dest, RegIndex src1 = invalidReg,
          RegIndex src2 = invalidReg)
{
    DynInstr in;
    in.tid = tid;
    in.op = OpClass::IntAlu;
    in.destReg = dest;
    in.srcReg1 = src1;
    in.srcReg2 = src2;
    return in;
}

/**
 * A residency whose only non-empty interval is its ROB entry,
 * [@p start, @p end): the IQ entry and FU latch are empty and no LSQ
 * entry is held.
 */
Residency
robOnly(Cycle start, Cycle end)
{
    Residency r;
    r.dispatch = start;
    r.iqEnd = start;
    r.fuEnd = start;
    r.lsqDataStart = start;
    r.close = end;
    return r;
}

/** Bit-cycles of a ROB entry held for @p cycles. */
std::uint64_t
robBitCycles(Cycle cycles)
{
    return std::uint64_t{bits::robEntry} * cycles;
}

/** FDD verdict the analyzer recorded for the @p i-th commit. */
bool
deadAt(CommitTrace &trace, std::size_t i)
{
    trace.finalize();
    return trace.records().at(i).destDead;
}

class DeadCodeTest : public ::testing::Test
{
  protected:
    DeadCodeTest() : ledger(2), analyzer(2, ledger, true)
    {
        ledger.setStructureBits(HwStruct::ROB, 1000);
        analyzer.recordCommits(&trace);
    }

    bool dead(std::size_t i) { return deadAt(trace, i); }

    AvfLedger ledger;
    DeadCodeAnalyzer analyzer;
    CommitTrace trace;
};

TEST_F(DeadCodeTest, OverwriteWithoutReadIsDead)
{
    auto a = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(a, robOnly(0, 10)));

    auto b = makeInstr(0, 5); // overwrites r5, nobody read it
    EXPECT_TRUE(analyzer.onCommit(b, Residency{}));
    EXPECT_TRUE(dead(0));
    EXPECT_EQ(analyzer.deadInstructions(), 1u);
    // a's interval resolved un-ACE.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, ReadBeforeOverwriteIsLive)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));

    auto reader = makeInstr(0, 6, 5);
    analyzer.onCommit(reader, Residency{});
    EXPECT_FALSE(dead(0));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));

    auto b = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(b, Residency{}))
        << "a was already resolved live";
}

TEST_F(DeadCodeTest, ReadAndRewriteSameRegisterIsLive)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));

    // r5 = r5 + 1: reads the old value, then displaces it.
    auto b = makeInstr(0, 5, 5);
    EXPECT_FALSE(analyzer.onCommit(b, Residency{}));
    EXPECT_FALSE(dead(0));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, SecondSourceCountsAsRead)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, Residency{});
    auto reader = makeInstr(0, 7, 1, 5);
    analyzer.onCommit(reader, Residency{});
    auto b = makeInstr(0, 5);
    EXPECT_FALSE(analyzer.onCommit(b, Residency{}));
}

TEST_F(DeadCodeTest, ThreadsAreIndependent)
{
    auto a0 = makeInstr(0, 5);
    auto a1 = makeInstr(1, 5);
    analyzer.onCommit(a0, Residency{});
    analyzer.onCommit(a1, Residency{});

    auto reader1 = makeInstr(1, 6, 5); // thread 1 reads its r5
    analyzer.onCommit(reader1, Residency{});

    auto b0 = makeInstr(0, 5);
    EXPECT_TRUE(analyzer.onCommit(b0, Residency{}))
        << "thread 0's r5 was never read";
    EXPECT_TRUE(dead(0));
    EXPECT_FALSE(dead(1));
}

TEST_F(DeadCodeTest, NonWritersResolveImmediately)
{
    auto store = makeInstr(0, invalidReg, 3, 4);
    store.op = OpClass::Store;
    analyzer.onCommit(store, robOnly(0, 20));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(20));
    // Nothing stayed parked: the end of the run adds no second copy.
    analyzer.finish();
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(20));
}

TEST_F(DeadCodeTest, NopsResolveUnAce)
{
    auto nop = makeInstr(0, invalidReg);
    nop.op = OpClass::Nop;
    analyzer.onCommit(nop, robOnly(0, 10));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, SquashedInstructionsAreUnAce)
{
    auto a = makeInstr(0, 5);
    a.squashed = true;
    analyzer.onSquash(a, robOnly(0, 10));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, SquashOfCleanInstructionPanics)
{
    ThrowGuard guard;
    auto a = makeInstr(0, 5);
    EXPECT_THROW(analyzer.onSquash(a, Residency{}), SimError);
}

TEST_F(DeadCodeTest, FinishResolvesPendingAsLive)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));
    analyzer.finish();
    EXPECT_FALSE(dead(0));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, DeadFractionTracksResolvedWriters)
{
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, Residency{});
    auto b = makeInstr(0, 5); // kills a
    analyzer.onCommit(b, Residency{});
    auto r = makeInstr(0, 6, 5); // proves b live; r itself stays pending
    analyzer.onCommit(r, Residency{});
    EXPECT_EQ(analyzer.resolvedInstructions(), 2u);
    EXPECT_EQ(analyzer.deadInstructions(), 1u);
    EXPECT_NEAR(analyzer.deadFraction(), 0.5, 1e-12);
    analyzer.finish(); // r resolves live at end of run
    EXPECT_EQ(analyzer.resolvedInstructions(), 3u);
    EXPECT_NEAR(analyzer.deadFraction(), 1.0 / 3.0, 1e-12);
}

TEST(DeadCodeDisabled, EverythingResolvesLiveImmediately)
{
    AvfLedger ledger(1);
    ledger.setStructureBits(HwStruct::ROB, 1000);
    DeadCodeAnalyzer analyzer(1, ledger, false);
    CommitTrace trace;
    analyzer.recordCommits(&trace);

    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));

    auto b = makeInstr(0, 5); // would kill a with analysis enabled
    EXPECT_FALSE(analyzer.onCommit(b, Residency{}));
    EXPECT_FALSE(deadAt(trace, 0));
    EXPECT_EQ(analyzer.deadInstructions(), 0u);
}

TEST(DeadCodeWrongPath, WrongPathResolvesUnAceEvenIfLive)
{
    AvfLedger ledger(1);
    ledger.setStructureBits(HwStruct::ROB, 1000);
    DeadCodeAnalyzer analyzer(1, ledger, true);

    auto a = makeInstr(0, 5);
    a.wrongPath = true;
    analyzer.onSquash(a, robOnly(0, 10));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, DeadFractionIsZeroBeforeAnyResolution)
{
    EXPECT_EQ(analyzer.resolvedInstructions(), 0u);
    EXPECT_DOUBLE_EQ(analyzer.deadFraction(), 0.0); // no divide-by-zero
}

TEST_F(DeadCodeTest, ResolveLiveForwardsAllPendingIntervals)
{
    // A load: IQ [0, 4), FU [4, 5), ROB and LSQ tag [0, 10), LSQ data
    // [8, 10). Every interval reaches the ledger, once.
    auto a = makeInstr(0, 5);
    a.op = OpClass::Load;
    Residency r;
    r.dispatch = 0;
    r.iqEnd = 4;
    r.fuEnd = 5;
    r.lsqDataStart = 8;
    r.close = 10;
    r.mem = true;
    analyzer.resolveLive(a, r);
    analyzer.finish();
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::IQ), 4u * bits::iqEntry);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::FU), 1u * bits::fuLatch);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::LsqTag), 10u * bits::lsqTag);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::LsqData), 2u * bits::lsqData);
}

TEST_F(DeadCodeTest, DeadIntervalsNeverReachProtectionTallies)
{
    // A dead instruction's interval resolves un-ACE; protection must not
    // count it as covered — only live ACE exposure can be covered.
    ledger.setProtection(uniformProtection(ProtScheme::Secded));
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));
    auto b = makeInstr(0, 5); // kills a
    EXPECT_TRUE(analyzer.onCommit(b, Residency{}));
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.residualAceBitCycles(HwStruct::ROB), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::ROB), robBitCycles(10));
}

TEST_F(DeadCodeTest, LiveIntervalsSplitIntoCoveredPlusResidual)
{
    ledger.setProtection(uniformProtection(ProtScheme::Parity));
    auto a = makeInstr(0, 5);
    analyzer.onCommit(a, robOnly(0, 10));
    auto reader = makeInstr(0, 6, 5); // proves a live
    analyzer.onCommit(reader, Residency{});
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::ROB), robBitCycles(10));
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB),
              robBitCycles(10) * parityCoverage256 / 256);
    EXPECT_EQ(ledger.coveredAceBitCycles(HwStruct::ROB) +
                  ledger.residualAceBitCycles(HwStruct::ROB),
              ledger.aceBitCycles(HwStruct::ROB));
}

// ---- residencyAt: the intervals of an instruction leaving the pipeline --

/** A correct-path @p op of thread 0, dispatched at cycle 10. */
DynInstr
dispatched(OpClass op)
{
    DynInstr in = makeInstr(0, op == OpClass::Load ? 5 : invalidReg);
    in.op = op;
    in.dispatchCycle = 10;
    in.inIq = true;
    return in;
}

void
issueAt(DynInstr &in, Cycle cycle)
{
    in.inIq = false;
    in.issued = true;
    in.issueCycle = cycle;
}

void
completeAt(DynInstr &in, Cycle cycle)
{
    in.completed = true;
    in.completeCycle = cycle;
}

/** Bit-cycles of the IQ, FU, ROB, LSQ tag and LSQ data, in that order. */
using Tallies = std::array<std::uint64_t, 5>;

/** What the analyzer hands the ledger for @p r, ACE or not. */
Tallies
forwarded(const DynInstr &in, const Residency &r)
{
    AvfLedger ledger(1);
    DeadCodeAnalyzer analyzer(1, ledger, true);
    analyzer.resolveLive(in, r);
    auto all = [&](HwStruct s) {
        return ledger.aceBitCycles(s) + ledger.unAceBitCycles(s);
    };
    return {all(HwStruct::IQ), all(HwStruct::FU), all(HwStruct::ROB),
            all(HwStruct::LsqTag), all(HwStruct::LsqData)};
}

void
expectResidency(const Residency &r, Cycle dispatch, Cycle iq_end,
                Cycle fu_end, Cycle lsq_data_start, Cycle close, bool mem)
{
    EXPECT_EQ(r.dispatch, dispatch);
    EXPECT_EQ(r.iqEnd, iq_end);
    EXPECT_EQ(r.fuEnd, fu_end);
    EXPECT_EQ(r.lsqDataStart, lsq_data_start);
    EXPECT_EQ(r.close, close);
    EXPECT_EQ(r.mem, mem);
}

constexpr std::uint64_t kIq = bits::iqEntry;
constexpr std::uint64_t kFu = bits::fuLatch;
constexpr std::uint64_t kRob = bits::robEntry;
constexpr std::uint64_t kTag = bits::lsqTag;
constexpr std::uint64_t kData = bits::lsqData;

TEST(ResidencyAt, CommittedLoadHoldsLsqDataFromCompletion)
{
    auto in = dispatched(OpClass::Load);
    issueAt(in, 14);
    completeAt(in, 40); // a miss
    Residency r = residencyAt(in, 45, true);
    expectResidency(r, 10, 14, 15, 40, 45, true);
    EXPECT_EQ(forwarded(in, r),
              (Tallies{4 * kIq, 1 * kFu, 35 * kRob, 35 * kTag, 5 * kData}));
}

TEST(ResidencyAt, CommittedStoreHoldsLsqDataFromIssue)
{
    auto in = dispatched(OpClass::Store);
    issueAt(in, 12);
    completeAt(in, 13);
    Residency r = residencyAt(in, 20, true);
    expectResidency(r, 10, 12, 13, 12, 20, true);
    EXPECT_EQ(forwarded(in, r),
              (Tallies{2 * kIq, 1 * kFu, 10 * kRob, 10 * kTag, 8 * kData}));
}

TEST(ResidencyAt, SquashBeforeIssueEndsIqAtTheSquashWithoutFuLatch)
{
    auto in = dispatched(OpClass::Load);
    in.squashed = true;
    Residency r = residencyAt(in, 17, false);
    expectResidency(r, 10, 17, 17, 10, 17, true);
    EXPECT_EQ(forwarded(in, r),
              (Tallies{7 * kIq, 0, 7 * kRob, 7 * kTag, 7 * kData}));
}

TEST(ResidencyAt, SquashAfterIssueKeepsFuLatchPastTheSquash)
{
    auto in = dispatched(OpClass::IntDiv);
    issueAt(in, 12); // a 20-cycle divide, squashed at 15
    in.squashed = true;
    Residency r = residencyAt(in, 15, false);
    expectResidency(r, 10, 12, 32, 10, 15, false);
    EXPECT_EQ(forwarded(in, r), (Tallies{2 * kIq, 20 * kFu, 5 * kRob, 0, 0}));
}

TEST(ResidencyAt, NopHoldsNoFuLatch)
{
    auto in = dispatched(OpClass::Nop);
    issueAt(in, 11);
    completeAt(in, 12);
    Residency r = residencyAt(in, 13, true);
    expectResidency(r, 10, 11, 11, 10, 13, false);
    EXPECT_EQ(forwarded(in, r), (Tallies{1 * kIq, 0, 3 * kRob, 0, 0}));
}

TEST(ResidencyAt, InFlightAtEndOfRunHoldsLsqDataFromDispatch)
{
    // finalizeAvf's case: a load issued at 14 still waits for memory
    // when the run ends at 30.
    auto in = dispatched(OpClass::Load);
    issueAt(in, 14);
    in.completeCycle = 60;
    Residency r = residencyAt(in, 30, false);
    expectResidency(r, 10, 14, 15, 10, 30, true);
    EXPECT_EQ(forwarded(in, r),
              (Tallies{4 * kIq, 1 * kFu, 20 * kRob, 20 * kTag, 20 * kData}));
}

} // namespace
} // namespace smtavf
