/**
 * @file
 * Unit and property tests for the protection-modeling subsystem
 * (src/protect/): the per-interval coverage model, assignment parsing,
 * the cost model and its capacity mirror, residual-AVF identities on
 * real simulations, and the journal/fingerprint integration.
 */

#include <gtest/gtest.h>

#include "protect/cost.hh"
#include "protect/scheme.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

TEST(ProtSchemeTest, NamesRoundTrip)
{
    for (std::size_t i = 0; i < numProtSchemes; ++i) {
        auto s = static_cast<ProtScheme>(i);
        ProtScheme parsed;
        ASSERT_TRUE(parseProtScheme(protSchemeName(s), parsed))
            << protSchemeName(s);
        EXPECT_EQ(parsed, s);
    }
}

TEST(ProtSchemeTest, ParseAliasesAndCase)
{
    ProtScheme s;
    EXPECT_TRUE(parseProtScheme("ecc", s));
    EXPECT_EQ(s, ProtScheme::Secded);
    EXPECT_TRUE(parseProtScheme("scrub", s));
    EXPECT_EQ(s, ProtScheme::SecdedScrub);
    EXPECT_TRUE(parseProtScheme("ecc+scrub", s));
    EXPECT_EQ(s, ProtScheme::SecdedScrub);
    EXPECT_TRUE(parseProtScheme("PARITY", s));
    EXPECT_EQ(s, ProtScheme::Parity);
    EXPECT_FALSE(parseProtScheme("chipkill", s));
    EXPECT_FALSE(parseProtScheme("", s));
}

TEST(ProtSchemeTest, StructKeysRoundTrip)
{
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        HwStruct parsed;
        ASSERT_TRUE(parseHwStructKey(hwStructKey(s), parsed))
            << hwStructKey(s);
        EXPECT_EQ(parsed, s);
    }
}

TEST(CoverageTest, NeverExceedsIntervalAndNoneIsZero)
{
    for (std::uint32_t bits : {1u, 7u, 64u, 4096u}) {
        for (Cycle len : {Cycle{1}, Cycle{13}, Cycle{100000}}) {
            std::uint64_t bc = std::uint64_t{bits} * len;
            for (std::size_t i = 0; i < numProtSchemes; ++i) {
                auto s = static_cast<ProtScheme>(i);
                auto covered = coveredAceBitCycles(s, 500, bits, 10,
                                                   10 + len);
                EXPECT_LE(covered, bc) << protSchemeName(s);
            }
            EXPECT_EQ(coveredAceBitCycles(ProtScheme::None, 500, bits, 10,
                                          10 + len),
                      0u);
        }
    }
}

TEST(CoverageTest, EmptyIntervalOrZeroBitsCoverNothing)
{
    EXPECT_EQ(coveredAceBitCycles(ProtScheme::Secded, 0, 64, 10, 10), 0u);
    EXPECT_EQ(coveredAceBitCycles(ProtScheme::Secded, 0, 0, 10, 20), 0u);
}

TEST(CoverageTest, SchemeStrengthOrdering)
{
    // For every interval shape: parity <= secded <= secded+scrub.
    for (std::uint32_t bits : {3u, 64u, 1024u}) {
        for (Cycle len : {Cycle{5}, Cycle{256}, Cycle{20000}}) {
            auto parity = coveredAceBitCycles(ProtScheme::Parity, 1000,
                                              bits, 0, len);
            auto secded = coveredAceBitCycles(ProtScheme::Secded, 1000,
                                              bits, 0, len);
            auto scrub = coveredAceBitCycles(ProtScheme::SecdedScrub, 1000,
                                             bits, 0, len);
            EXPECT_LE(parity, secded);
            EXPECT_LE(secded, scrub);
        }
    }
}

TEST(CoverageTest, ScrubDegeneratesToSecdedForShortResidencies)
{
    // Residency shorter than (or equal to) the scrub interval: no sweep
    // lands inside it, so coverage is exactly SECDED's. Interval 0 means
    // no scrubbing at all.
    for (Cycle len : {Cycle{1}, Cycle{999}, Cycle{1000}}) {
        EXPECT_EQ(coveredAceBitCycles(ProtScheme::SecdedScrub, 1000, 64, 0,
                                      len),
                  coveredAceBitCycles(ProtScheme::Secded, 1000, 64, 0,
                                      len));
    }
    EXPECT_EQ(
        coveredAceBitCycles(ProtScheme::SecdedScrub, 0, 64, 0, 5000),
        coveredAceBitCycles(ProtScheme::Secded, 0, 64, 0, 5000));
}

TEST(CoverageTest, ShorterScrubIntervalCoversMore)
{
    auto cover = [](Cycle interval) {
        return coveredAceBitCycles(ProtScheme::SecdedScrub, interval, 128,
                                   0, 100000);
    };
    EXPECT_GT(cover(100), cover(1000));
    EXPECT_GT(cover(1000), cover(100000));
}

TEST(ProtectionConfigTest, StrIsCanonical)
{
    ProtectionConfig p;
    EXPECT_EQ(p.str(), "none");
    EXPECT_FALSE(p.any());
    p.assign(HwStruct::RegFile, ProtScheme::Parity);
    p.assign(HwStruct::IQ, ProtScheme::Secded);
    EXPECT_TRUE(p.any());
    // HwStruct order, not assignment order; no scrub suffix unscrubbed.
    EXPECT_EQ(p.str(), "iq=secded,regfile=parity");
    p.assign(HwStruct::ROB, ProtScheme::SecdedScrub);
    p.scrubInterval = 777;
    EXPECT_EQ(p.str(), "iq=secded,regfile=parity,rob=secded+scrub,"
                       "scrub=777");
}

TEST(ProtectionConfigTest, Validation)
{
    ProtectionConfig p;
    EXPECT_EQ(p.validateMsg(), "");
    p.assign(HwStruct::IQ, ProtScheme::SecdedScrub);
    p.scrubInterval = 0;
    EXPECT_NE(p.validateMsg(), "");
    p.scrubInterval = 100;
    EXPECT_EQ(p.validateMsg(), "");
    p.scrubInterval = Cycle{1} << 31;
    EXPECT_NE(p.validateMsg(), "");
}

TEST(ProtectionConfigTest, ParseAssignment)
{
    ProtectionConfig p;
    std::string err;
    ASSERT_TRUE(parseAssignment("iq=ecc,regfile=parity,rob=scrub", p, err))
        << err;
    EXPECT_EQ(p.schemeFor(HwStruct::IQ), ProtScheme::Secded);
    EXPECT_EQ(p.schemeFor(HwStruct::RegFile), ProtScheme::Parity);
    EXPECT_EQ(p.schemeFor(HwStruct::ROB), ProtScheme::SecdedScrub);
    EXPECT_EQ(p.schemeFor(HwStruct::FU), ProtScheme::None);

    // Applies on top: later specs override, untouched structures stay.
    ASSERT_TRUE(parseAssignment("iq=none", p, err)) << err;
    EXPECT_EQ(p.schemeFor(HwStruct::IQ), ProtScheme::None);
    EXPECT_EQ(p.schemeFor(HwStruct::RegFile), ProtScheme::Parity);
}

TEST(ProtectionConfigTest, ParseAssignmentErrors)
{
    ProtectionConfig p;
    std::string err;
    EXPECT_FALSE(parseAssignment("", p, err));
    EXPECT_FALSE(parseAssignment("iq", p, err));
    EXPECT_FALSE(parseAssignment("=parity", p, err));
    EXPECT_FALSE(parseAssignment("iq=", p, err));
    EXPECT_FALSE(parseAssignment("l1=parity", p, err));
    EXPECT_NE(err.find("unknown structure"), std::string::npos);
    EXPECT_FALSE(parseAssignment("iq=tmr", p, err));
    EXPECT_NE(err.find("unknown scheme"), std::string::npos);
}

TEST(CostModelTest, FactorOrdering)
{
    EXPECT_EQ(areaOverheadFactor(ProtScheme::None), 0.0);
    EXPECT_LT(areaOverheadFactor(ProtScheme::Parity),
              areaOverheadFactor(ProtScheme::Secded));
    EXPECT_LT(areaOverheadFactor(ProtScheme::Secded),
              areaOverheadFactor(ProtScheme::SecdedScrub));
    EXPECT_EQ(energyOverheadFactor(ProtScheme::None, 100), 0.0);
    EXPECT_LT(energyOverheadFactor(ProtScheme::Parity, 100),
              energyOverheadFactor(ProtScheme::Secded, 100));
    // Scrubbing energy grows as the interval shrinks.
    EXPECT_GT(energyOverheadFactor(ProtScheme::SecdedScrub, 100),
              energyOverheadFactor(ProtScheme::SecdedScrub, 10000));
}

TEST(CostModelTest, UniformCostEqualsFactor)
{
    auto cfg = table1Config(2);
    cfg.protection = uniformProtection(ProtScheme::Secded);
    auto cost = protectionCost(cfg);
    EXPECT_EQ(cost.protectedBits, cost.totalBits);
    EXPECT_GT(cost.totalBits, 0u);
    // Every bit weighted by the same factor: the weighted mean is exact.
    EXPECT_DOUBLE_EQ(cost.areaOverhead,
                     areaOverheadFactor(ProtScheme::Secded));

    cfg.protection = ProtectionConfig{};
    cost = protectionCost(cfg);
    EXPECT_EQ(cost.protectedBits, 0u);
    EXPECT_DOUBLE_EQ(cost.areaOverhead, 0.0);
    EXPECT_DOUBLE_EQ(cost.energyOverhead, 0.0);
}

TEST(CostModelTest, PartialCostIsCapacityWeighted)
{
    auto cfg = table1Config(2);
    const auto bits = structureBitCapacities(cfg);
    cfg.protection.assign(HwStruct::IQ, ProtScheme::Secded);
    auto cost = protectionCost(cfg);
    EXPECT_EQ(cost.protectedBits,
              bits[static_cast<std::size_t>(HwStruct::IQ)]);
    double share = static_cast<double>(cost.protectedBits) /
                   static_cast<double>(cost.totalBits);
    EXPECT_DOUBLE_EQ(cost.areaOverhead,
                     share * areaOverheadFactor(ProtScheme::Secded));
}

TEST(CostModelTest, CapacitiesMirrorTheRealLedger)
{
    // The cost model recomputes each structure's bit capacity from the
    // MachineConfig; prove the mirror against what a real simulation
    // actually wires into its ledger.
    auto cfg = table1Config(2);
    const auto bits = structureBitCapacities(cfg);
    Simulator sim(cfg, findMix("2ctx-mix-A"));
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(bits[i], sim.ledger().structureBits(s))
            << hwStructName(s);
    }
}

/** One small protected run; shared by the identity tests below. */
SimResult
protectedRun(const ProtectionConfig &p)
{
    auto cfg = table1Config(2);
    cfg.protection = p;
    return runMix(cfg, findMix("2ctx-mix-A"), 5000);
}

TEST(ProtectedRunTest, OverlayNeverPerturbsTiming)
{
    // Protection is analytical: raw AVF, IPC and cycle count must be
    // bit-identical whatever the assignment.
    auto none = protectedRun(ProtectionConfig{});
    auto ecc = protectedRun(uniformProtection(ProtScheme::Secded));
    EXPECT_EQ(none.ipc, ecc.ipc);
    EXPECT_EQ(none.cycles, ecc.cycles);
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(none.avf.avf(s), ecc.avf.avf(s)) << hwStructName(s);
        EXPECT_EQ(none.avf.occupancy(s), ecc.avf.occupancy(s))
            << hwStructName(s);
    }
}

TEST(ProtectedRunTest, ResidualIdentitiesOnARealRun)
{
    auto none = protectedRun(ProtectionConfig{});
    auto parity = protectedRun(uniformProtection(ProtScheme::Parity));
    auto ecc = protectedRun(uniformProtection(ProtScheme::Secded));
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        // Unprotected: residual == raw, bit-exactly.
        EXPECT_EQ(none.avf.residualAvf(s), none.avf.avf(s))
            << hwStructName(s);
        // Stronger schemes never leave more behind.
        EXPECT_LE(ecc.avf.residualAvf(s), parity.avf.residualAvf(s))
            << hwStructName(s);
        EXPECT_LE(parity.avf.residualAvf(s), none.avf.avf(s))
            << hwStructName(s);
    }
}

TEST(ProtectedRunTest, JournalRoundTripsResidualAvf)
{
    auto r = protectedRun(uniformProtection(ProtScheme::Parity));
    auto line = serializeRun(0x1234abcd, r);
    std::uint64_t fp = 0;
    SimResult back;
    ASSERT_TRUE(parseRun(line, fp, back));
    EXPECT_EQ(fp, 0x1234abcdu);
    EXPECT_EQ(back.ipc, r.ipc);
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(back.avf.avf(s), r.avf.avf(s)) << hwStructName(s);
        EXPECT_EQ(back.avf.residualAvf(s), r.avf.residualAvf(s))
            << hwStructName(s);
    }
}

TEST(ProtectedRunTest, FingerprintSeesProtection)
{
    auto exp = makeExperiment(findMix("2ctx-mix-A"),
                              FetchPolicyKind::Icount, 5000);
    auto base_fp = experimentFingerprint(exp);

    // Any scheme change re-keys the experiment.
    auto protected_exp = exp;
    protected_exp.cfg.protection.assign(HwStruct::IQ, ProtScheme::Parity);
    EXPECT_NE(experimentFingerprint(protected_exp), base_fp);
    auto ecc_exp = exp;
    ecc_exp.cfg.protection.assign(HwStruct::IQ, ProtScheme::Secded);
    EXPECT_NE(experimentFingerprint(ecc_exp),
              experimentFingerprint(protected_exp));

    // The scrub interval only matters when something actually scrubs.
    auto idle_scrub = exp;
    idle_scrub.cfg.protection.scrubInterval = 123;
    EXPECT_EQ(experimentFingerprint(idle_scrub), base_fp);
    auto scrubbed = exp;
    scrubbed.cfg.protection.assign(HwStruct::ROB, ProtScheme::SecdedScrub);
    auto scrubbed_fp = experimentFingerprint(scrubbed);
    scrubbed.cfg.protection.scrubInterval = 123;
    EXPECT_NE(experimentFingerprint(scrubbed), scrubbed_fp);
}

} // namespace
} // namespace smtavf
