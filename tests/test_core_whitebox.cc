/**
 * @file
 * White-box tick-by-tick invariants on the SMT core, checked every cycle
 * over live runs under several policies.
 */

#include <gtest/gtest.h>

#include "policy/dwarn.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace smtavf
{
namespace
{

class CoreWhitebox : public ::testing::TestWithParam<int>
{
};

TEST_P(CoreWhitebox, PerCycleInvariantsHold)
{
    auto cfg = table1Config(4);
    cfg.fetchPolicy = static_cast<FetchPolicyKind>(GetParam());
    cfg.seed = 31;
    Simulator sim(cfg, findMix("4ctx-mix-A"));
    auto &core = sim.core();

    std::uint64_t last_committed = 0;
    unsigned iq_cap = cfg.iqSize;
    for (int i = 0; i < 5000; ++i) {
        core.tick();

        // Commit counts are monotone and cycle time advances 1:1.
        ASSERT_GE(core.totalCommitted(), last_committed);
        last_committed = core.totalCommitted();
        ASSERT_EQ(core.now(), static_cast<Cycle>(i + 1));

        unsigned iq_total = 0;
        std::uint64_t committed_sum = 0;
        for (ThreadId t = 0; t < 4; ++t) {
            // Correct-path in-flight never exceeds total in-flight.
            ASSERT_LE(core.inFlightCorrectPath(t), core.inFlightCount(t));
            // IQ occupancy is part of the in-flight count.
            ASSERT_LE(core.structOccupancy(HwStruct::IQ, t),
                      core.inFlightCount(t));
            iq_total += core.structOccupancy(HwStruct::IQ, t);
            committed_sum += core.committed(t);
        }
        // The shared IQ never overflows and per-thread shares sum to it.
        ASSERT_LE(iq_total, iq_cap);
        ASSERT_EQ(committed_sum, core.totalCommitted());
    }

    // Fetch accounting: committed + squashed can never exceed fetched.
    ASSERT_LE(core.totalCommitted() + core.squashedInstrs(),
              core.fetchedInstrs());
    // Wrong-path fetches are a subset of all fetches.
    ASSERT_LE(core.wrongPathFetched(), core.fetchedInstrs());

    // The diagnostic dump renders for every thread.
    auto dump = core.stateDump();
    EXPECT_NE(dump.find("T0"), std::string::npos);
    EXPECT_NE(dump.find("T3"), std::string::npos);
    EXPECT_NE(dump.find("freeInt"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CoreWhitebox,
    ::testing::Values(static_cast<int>(FetchPolicyKind::Icount),
                      static_cast<int>(FetchPolicyKind::Flush),
                      static_cast<int>(FetchPolicyKind::Stall),
                      static_cast<int>(FetchPolicyKind::DWarn),
                      static_cast<int>(FetchPolicyKind::PStall),
                      static_cast<int>(FetchPolicyKind::Rat)));

TEST(CoreWhitebox, PolicyAccessorMatchesConfig)
{
    auto cfg = table1Config(2);
    cfg.fetchPolicy = FetchPolicyKind::DWarn;
    Simulator sim(cfg, findMix("2ctx-cpu-A"));
    EXPECT_NE(dynamic_cast<const DWarnPolicy *>(&sim.core().policy()),
              nullptr);
    EXPECT_EQ(sim.core().numThreads(), 2u);
}

} // namespace
} // namespace smtavf
