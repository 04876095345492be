/**
 * @file
 * Unit tests for the AVF ledger arithmetic.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "avf/ledger.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

TEST(LedgerTest, RejectsBadThreadCount)
{
    ThrowGuard guard;
    EXPECT_THROW(AvfLedger(0), SimError);
    EXPECT_THROW(AvfLedger(9), SimError);
}

TEST(LedgerTest, BasicAvfArithmetic)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 1000);
    // 100 bits ACE for 40 of 100 cycles = 4000 of 100000 bit-cycles.
    l.addInterval(HwStruct::IQ, 0, 100, 10, 50, true);
    l.finalize(100);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::IQ), 0.04);
}

TEST(LedgerTest, UnAceCountsTowardOccupancyOnly)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::ROB, 1000);
    l.addInterval(HwStruct::ROB, 0, 100, 0, 50, true);
    l.addInterval(HwStruct::ROB, 0, 100, 50, 100, false);
    l.finalize(100);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::ROB), 0.05);
    EXPECT_DOUBLE_EQ(l.occupancy(HwStruct::ROB), 0.10);
    // Half the occupied bit-cycles are ACE.
    EXPECT_EQ(l.aceBitCycles(HwStruct::ROB), l.unAceBitCycles(HwStruct::ROB));
}

TEST(LedgerTest, PerThreadAttribution)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::IQ, 1000);
    l.addInterval(HwStruct::IQ, 0, 100, 0, 10, true);
    l.addInterval(HwStruct::IQ, 1, 100, 0, 30, true);
    l.finalize(100);
    EXPECT_DOUBLE_EQ(l.threadAvf(HwStruct::IQ, 0), 0.01);
    EXPECT_DOUBLE_EQ(l.threadAvf(HwStruct::IQ, 1), 0.03);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::IQ), 0.04);
}

TEST(LedgerTest, PrivateStructuresUsePerThreadDenominator)
{
    AvfLedger l(2);
    // Two 500-bit private ROBs: total 1000, per-thread 500.
    l.setStructureBits(HwStruct::ROB, 1000, 500);
    l.addInterval(HwStruct::ROB, 0, 500, 0, 50, true);
    l.finalize(100);
    // Thread 0 kept its whole private ROB ACE for half the run.
    EXPECT_DOUBLE_EQ(l.threadAvf(HwStruct::ROB, 0), 0.5);
    // But the aggregate (both ROBs) is half of that.
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::ROB), 0.25);
}

TEST(LedgerTest, ZeroLengthIntervalIsNoop)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.addInterval(HwStruct::IQ, 0, 50, 10, 10, true);
    l.finalize(10);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::IQ), 0.0);
}

TEST(LedgerTest, BackwardsIntervalPanics)
{
    ThrowGuard guard;
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    EXPECT_THROW(l.addInterval(HwStruct::IQ, 0, 50, 20, 10, true),
                 SimError);
}

TEST(LedgerTest, UnknownThreadPanics)
{
    ThrowGuard guard;
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    EXPECT_THROW(l.addInterval(HwStruct::IQ, 3, 50, 0, 10, true), SimError);
}

TEST(LedgerTest, AvfBeforeFinalizePanics)
{
    ThrowGuard guard;
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    EXPECT_THROW(l.avf(HwStruct::IQ), SimError);
}

TEST(LedgerTest, FinalizeWithZeroCyclesIsFatal)
{
    ThrowGuard guard;
    AvfLedger l(1);
    EXPECT_THROW(l.finalize(0), SimError);
}

TEST(LedgerTest, UntrackedStructureReportsZero)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.finalize(10);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::Dtlb), 0.0);
    EXPECT_DOUBLE_EQ(l.occupancy(HwStruct::Dtlb), 0.0);
}

TEST(LedgerTest, AvfNeverExceedsOccupancy)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::LsqData, 4096);
    l.addInterval(HwStruct::LsqData, 0, 64, 0, 37, true);
    l.addInterval(HwStruct::LsqData, 1, 64, 5, 90, false);
    l.addInterval(HwStruct::LsqData, 1, 64, 10, 20, true);
    l.finalize(100);
    EXPECT_LE(l.avf(HwStruct::LsqData), l.occupancy(HwStruct::LsqData));
}

TEST(LedgerTest, RawBitCycleAccessors)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::FU, 128);
    l.addInterval(HwStruct::FU, 0, 128, 0, 3, true);
    l.addInterval(HwStruct::FU, 1, 128, 0, 2, true);
    l.addInterval(HwStruct::FU, 1, 128, 2, 4, false);
    EXPECT_EQ(l.aceBitCycles(HwStruct::FU), 128u * 5);
    EXPECT_EQ(l.aceBitCycles(HwStruct::FU, 1), 128u * 2);
    EXPECT_EQ(l.unAceBitCycles(HwStruct::FU), 128u * 2);
}

TEST(LedgerTest, ResidualEqualsRawWhenUnprotected)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::IQ, 1000);
    l.addInterval(HwStruct::IQ, 0, 100, 10, 47, true);
    l.addInterval(HwStruct::IQ, 1, 33, 5, 91, true);
    l.finalize(100);
    // Bit-exact, not approximate: same integer tallies, same division.
    EXPECT_EQ(l.residualAvf(HwStruct::IQ), l.avf(HwStruct::IQ));
    EXPECT_EQ(l.coveredAceBitCycles(HwStruct::IQ), 0u);
    EXPECT_EQ(l.residualAceBitCycles(HwStruct::IQ),
              l.aceBitCycles(HwStruct::IQ));
}

TEST(LedgerTest, SchemeOrderingOnIdenticalIntervals)
{
    // residual(SECDED) <= residual(parity) <= raw, bit-exactly, on the
    // exact same residency pattern.
    auto run = [](ProtScheme scheme) {
        AvfLedger l(1);
        l.setStructureBits(HwStruct::ROB, 2048);
        l.setProtection(uniformProtection(scheme));
        l.addInterval(HwStruct::ROB, 0, 76, 3, 1009, true);
        l.addInterval(HwStruct::ROB, 0, 76, 1009, 1010, false);
        l.addInterval(HwStruct::ROB, 0, 152, 500, 777, true);
        l.finalize(2000);
        return l.residualAvf(HwStruct::ROB);
    };
    double raw = run(ProtScheme::None);
    double parity = run(ProtScheme::Parity);
    double secded = run(ProtScheme::Secded);
    EXPECT_LT(secded, parity);
    EXPECT_LT(parity, raw);
    EXPECT_GT(secded, 0.0); // 1/256 of exposure always leaks through
}

TEST(LedgerTest, CoveredPlusResidualConservesAce)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::LsqData, 4096);
    ProtectionConfig p;
    p.assign(HwStruct::LsqData, ProtScheme::Parity);
    l.setProtection(p);
    l.addInterval(HwStruct::LsqData, 0, 64, 0, 37, true);
    l.addInterval(HwStruct::LsqData, 1, 64, 5, 90, true);
    l.addInterval(HwStruct::LsqData, 1, 64, 90, 95, false);
    for (ThreadId tid = 0; tid < 2; ++tid)
        EXPECT_EQ(l.coveredAceBitCycles(HwStruct::LsqData, tid) +
                      l.residualAceBitCycles(HwStruct::LsqData, tid),
                  l.aceBitCycles(HwStruct::LsqData, tid));
    EXPECT_EQ(l.coveredAceBitCycles(HwStruct::LsqData) +
                  l.residualAceBitCycles(HwStruct::LsqData),
              l.aceBitCycles(HwStruct::LsqData));
}

TEST(LedgerTest, ZeroOccupancyResidualIsZero)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.setProtection(uniformProtection(ProtScheme::Secded));
    l.finalize(50);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::IQ), 0.0);
    EXPECT_DOUBLE_EQ(l.residualAvf(HwStruct::IQ), 0.0);
    EXPECT_DOUBLE_EQ(l.occupancy(HwStruct::IQ), 0.0);
}

TEST(LedgerTest, FullOccupancySaturation)
{
    // Every bit ACE for the whole run: AVF saturates at exactly 1.0 and
    // the SECDED residual is exactly the 1/256 leak-through, no rounding
    // drift past either bound.
    AvfLedger l(1);
    l.setStructureBits(HwStruct::Dtlb, 256);
    l.setProtection(uniformProtection(ProtScheme::Secded));
    l.addInterval(HwStruct::Dtlb, 0, 256, 0, 1000, true);
    l.finalize(1000);
    EXPECT_DOUBLE_EQ(l.avf(HwStruct::Dtlb), 1.0);
    EXPECT_DOUBLE_EQ(l.occupancy(HwStruct::Dtlb), 1.0);
    std::uint64_t bc = 256u * 1000;
    EXPECT_EQ(l.coveredAceBitCycles(HwStruct::Dtlb), bc * 255 / 256);
    EXPECT_DOUBLE_EQ(l.residualAvf(HwStruct::Dtlb),
                     static_cast<double>(bc - bc * 255 / 256) / bc);
}

TEST(LedgerTest, ScrubbingClipsLongResidencies)
{
    // A residency much longer than the scrub interval: scrubbing covers
    // everything but the exposed tail, beating plain SECDED.
    auto residual = [](ProtScheme scheme) {
        AvfLedger l(1);
        l.setStructureBits(HwStruct::Dl1Data, 8192);
        l.setProtection(uniformProtection(scheme, /*scrub_interval=*/100));
        l.addInterval(HwStruct::Dl1Data, 0, 512, 0, 10000, true);
        l.finalize(10000);
        return l.residualAceBitCycles(HwStruct::Dl1Data);
    };
    EXPECT_LT(residual(ProtScheme::SecdedScrub),
              residual(ProtScheme::Secded));
    // Exposed tail = 100 of 10000 cycles, SECDED-covered at 255/256.
    std::uint64_t exposed = 512u * 100;
    EXPECT_EQ(residual(ProtScheme::SecdedScrub),
              exposed - exposed * 255 / 256);
}

TEST(LedgerTest, SetProtectionAfterIntervalIsFatal)
{
    ThrowGuard guard;
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.addInterval(HwStruct::IQ, 0, 10, 0, 5, true);
    EXPECT_THROW(l.setProtection(uniformProtection(ProtScheme::Parity)),
                 SimError);
}

TEST(LedgerTest, InvalidProtectionConfigIsFatal)
{
    ThrowGuard guard;
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    ProtectionConfig p = uniformProtection(ProtScheme::SecdedScrub);
    p.scrubInterval = 0;
    EXPECT_THROW(l.setProtection(p), SimError);
}


TEST(LedgerTest, BatchEqualsSingleIntervals)
{
    // Coverage floors per interval: under SECDED the ACE lengths 5 and 1
    // cover floor(40 x 255 / 256) + floor(8 x 255 / 256) = 39 + 7 of 8
    // bits, where one summed length would cover floor(48 x 255 / 256) = 47.
    const std::uint64_t entries[] = {7, 5 | AvfLedger::kAceFlag,
                                     9 | AvfLedger::kAceFlag, 10};
    for (ProtScheme scheme : {ProtScheme::None, ProtScheme::Secded,
                              ProtScheme::SecdedScrub}) {
        AvfLedger batch(2), single(2);
        batch.setProtection(uniformProtection(scheme, 2));
        single.setProtection(uniformProtection(scheme, 2));
        batch.addIntervals(HwStruct::Dl1Data, 1, 8, entries, 4, 10);
        for (std::uint64_t e : entries)
            single.addInterval(HwStruct::Dl1Data, 1, 8,
                               e & AvfLedger::kStartMask, 10,
                               (e & AvfLedger::kAceFlag) != 0);
        auto s = HwStruct::Dl1Data;
        EXPECT_EQ(batch.aceBitCycles(s, 1), single.aceBitCycles(s, 1));
        EXPECT_EQ(batch.unAceBitCycles(s), single.unAceBitCycles(s));
        EXPECT_EQ(batch.coveredAceBitCycles(s, 1),
                  single.coveredAceBitCycles(s, 1));
        EXPECT_EQ(batch.residualAceBitCycles(s, 1),
                  single.residualAceBitCycles(s, 1));
        EXPECT_EQ(batch.aceBitCycles(s, 0), 0u);
        if (scheme == ProtScheme::Secded) {
            EXPECT_EQ(batch.coveredAceBitCycles(s), 46u);
        }
    }
}

TEST(LedgerTest, BatchChecksEveryInterval)
{
    ThrowGuard guard;
    const std::uint64_t backwards[] = {3, 12 | AvfLedger::kAceFlag, 4};
    for (ProtScheme scheme : {ProtScheme::None, ProtScheme::Secded}) {
        AvfLedger l(1);
        l.setProtection(uniformProtection(scheme));
        EXPECT_THROW(l.addIntervals(HwStruct::IQ, 0, 8, backwards, 3, 10),
                     SimError);
        EXPECT_THROW(l.addIntervals(HwStruct::IQ, 1, 8, backwards, 1, 10),
                     SimError);
    }
    // An end past the packed cycle range cannot be told from a wrap.
    AvfLedger l(1);
    EXPECT_THROW(l.addIntervals(HwStruct::IQ, 0, 8, backwards, 1,
                                AvfLedger::kAceFlag),
                 SimError);
}

TEST(LedgerTest, PerThreadAccessorsRejectUnknownThread)
{
    AvfLedger l(2);
    EXPECT_THROW(l.aceBitCycles(HwStruct::IQ, 2), std::out_of_range);
    EXPECT_THROW(l.coveredAceBitCycles(HwStruct::IQ, 2), std::out_of_range);
    EXPECT_THROW(l.residualAceBitCycles(HwStruct::IQ, 2), std::out_of_range);
}

TEST(LedgerTest, RejectsTallyForAnotherThreadCount)
{
    AvfLedger two(2), one(1);
    two.addInterval(HwStruct::IQ, 1, 8, 0, 10, true);
    Serializer ser;
    ser(two);
    Deserializer des(ser.buffer());
    EXPECT_THROW(des(one), CheckpointError);

    // The same ledger loads back into its own thread count.
    AvfLedger again(2);
    Deserializer ok(ser.buffer());
    ok(again);
    EXPECT_TRUE(ok.exhausted());
    EXPECT_EQ(again.aceBitCycles(HwStruct::IQ, 1), 80u);
}

} // namespace
} // namespace smtavf
