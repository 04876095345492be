/**
 * @file
 * Integration tests for the SMT core: end-to-end pipeline behaviour,
 * determinism, squash recovery, policy interaction and resource hygiene.
 */

#include <gtest/gtest.h>

#include "policy/flush.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

WorkloadMix
tinyMix(unsigned contexts)
{
    WorkloadMix m;
    m.name = "tiny";
    m.contexts = contexts;
    m.type = MixType::Mix;
    m.group = 'A';
    const char *names[] = {"eon", "mcf", "mesa", "twolf",
                           "gcc", "swim", "bzip2", "vpr"};
    for (unsigned i = 0; i < contexts; ++i)
        m.benchmarks.push_back(names[i]);
    return m;
}

MachineConfig
tinyConfig(unsigned contexts)
{
    MachineConfig cfg;
    cfg.contexts = contexts;
    cfg.seed = 12345;
    return cfg;
}

TEST(CoreIntegration, RunsToBudget)
{
    Simulator sim(tinyConfig(2), tinyMix(2));
    auto r = sim.run(5000);
    EXPECT_GE(r.totalCommitted, 5000u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(CoreIntegration, EveryThreadMakesProgress)
{
    Simulator sim(tinyConfig(4), tinyMix(4));
    auto r = sim.run(20000);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 0u) << t.benchmark;
}

TEST(CoreIntegration, PerThreadCommitsSumToTotal)
{
    Simulator sim(tinyConfig(4), tinyMix(4));
    auto r = sim.run(20000);
    std::uint64_t sum = 0;
    for (const auto &t : r.threads)
        sum += t.committed;
    EXPECT_EQ(sum, r.totalCommitted);
}

TEST(CoreIntegration, DeterministicAcrossRuns)
{
    auto run = [] {
        Simulator sim(tinyConfig(2), tinyMix(2));
        return sim.run(8000);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalCommitted, b.totalCommitted);
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        EXPECT_DOUBLE_EQ(a.avf.avf(hs), b.avf.avf(hs)) << hwStructName(hs);
    }
}

TEST(CoreIntegration, SeedChangesOutcome)
{
    Simulator a(tinyConfig(2), tinyMix(2));
    auto cfg = tinyConfig(2);
    cfg.seed = 999;
    Simulator b(cfg, tinyMix(2));
    EXPECT_NE(a.run(8000).cycles, b.run(8000).cycles);
}

TEST(CoreIntegration, SingleContextSuperscalarWorks)
{
    WorkloadMix m{"st", 1, MixType::Cpu, 'A', {"eon"}};
    Simulator sim(tinyConfig(1), m);
    auto r = sim.run(10000);
    EXPECT_GT(r.ipc, 0.5) << "a CPU-bound thread should run fast alone";
}

TEST(CoreIntegration, EightContextsWork)
{
    Simulator sim(tinyConfig(8), tinyMix(8));
    auto r = sim.run(30000);
    EXPECT_GE(r.totalCommitted, 30000u);
    EXPECT_EQ(r.threads.size(), 8u);
}

TEST(CoreIntegration, MispredictsProduceWrongPathAndSquashes)
{
    Simulator sim(tinyConfig(2), tinyMix(2));
    auto r = sim.run(10000);
    EXPECT_GT(r.stats.get("fetch.wrongPath"), 0.0);
    EXPECT_GT(r.stats.get("squashed"), 0.0);
    EXPECT_GT(r.stats.get("branch.mispredictRate"), 0.0);
    EXPECT_LT(r.stats.get("branch.mispredictRate"), 0.3);
}

TEST(CoreIntegration, WrongPathAblationFetchesNone)
{
    auto cfg = tinyConfig(2);
    cfg.avf.wrongPathModel = false;
    Simulator sim(cfg, tinyMix(2));
    auto r = sim.run(10000);
    EXPECT_EQ(r.stats.get("fetch.wrongPath"), 0.0);
}

TEST(CoreIntegration, DeadCodeFractionIsPlausible)
{
    Simulator sim(tinyConfig(2), tinyMix(2));
    auto r = sim.run(20000);
    double dead = r.stats.get("deadCode.fraction");
    EXPECT_GT(dead, 0.01);
    EXPECT_LT(dead, 0.5);
}

TEST(CoreIntegration, MismatchedMixIsFatal)
{
    ThrowGuard guard;
    EXPECT_THROW(Simulator(tinyConfig(2), tinyMix(4)), SimError);
}

TEST(CoreIntegration, SimulatorIsSingleUse)
{
    ThrowGuard guard;
    Simulator sim(tinyConfig(2), tinyMix(2));
    sim.run(2000);
    EXPECT_THROW(sim.run(2000), SimError);
}

TEST(CoreIntegration, ZeroBudgetIsFatal)
{
    ThrowGuard guard;
    Simulator sim(tinyConfig(2), tinyMix(2));
    EXPECT_THROW(sim.run(0), SimError);
}

TEST(CoreIntegration, TooSmallRegisterPoolIsFatal)
{
    ThrowGuard guard;
    auto cfg = tinyConfig(8);
    cfg.intPhysRegs = 100; // < 8 x 32 committed mappings
    EXPECT_THROW(Simulator(cfg, tinyMix(8)), SimError);
}

class PolicyIntegration
    : public ::testing::TestWithParam<FetchPolicyKind>
{
};

TEST_P(PolicyIntegration, EveryPolicyRunsCleanly)
{
    auto cfg = tinyConfig(4);
    cfg.fetchPolicy = GetParam();
    Simulator sim(cfg, tinyMix(4));
    auto r = sim.run(15000);
    EXPECT_GE(r.totalCommitted, 15000u);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 0u)
            << fetchPolicyName(GetParam()) << " starved " << t.benchmark;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyIntegration,
    ::testing::Values(FetchPolicyKind::RoundRobin, FetchPolicyKind::Icount,
                      FetchPolicyKind::Flush, FetchPolicyKind::Stall,
                      FetchPolicyKind::Dg, FetchPolicyKind::Pdg,
                      FetchPolicyKind::DWarn));

TEST(CoreIntegration, FlushPolicyActuallyFlushes)
{
    auto cfg = tinyConfig(4);
    cfg.fetchPolicy = FetchPolicyKind::Flush;
    WorkloadMix mem{"mem", 4, MixType::Mem, 'A',
                    {"mcf", "swim", "twolf", "equake"}};
    Simulator sim(cfg, mem);
    auto r = sim.run(20000);
    // FLUSH squashes correct-path work on L2 misses: far more squashes
    // than mispredict-only execution produces.
    auto &policy = static_cast<SmtCore &>(sim.core()).policy();
    EXPECT_NE(dynamic_cast<FlushPolicy *>(&policy), nullptr);
    EXPECT_GT(r.stats.get("squashed"), 0.0);
}

TEST(CoreIntegration, SmtBeatsWorstSingleThread)
{
    // Total throughput with 2 threads must exceed either thread alone.
    WorkloadMix duo{"duo", 2, MixType::Cpu, 'A', {"eon", "mesa"}};
    Simulator smt(tinyConfig(2), duo);
    auto r = smt.run(20000);

    WorkloadMix solo{"solo", 1, MixType::Cpu, 'A', {"eon"}};
    Simulator st(tinyConfig(1), solo);
    auto rs = st.run(10000);

    EXPECT_GT(r.ipc, rs.ipc * 0.9)
        << "SMT throughput should not collapse below single-thread";
}

TEST(CoreIntegration, OccupancyBoundsHold)
{
    Simulator sim(tinyConfig(4), tinyMix(4));
    auto r = sim.run(20000);
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        EXPECT_GE(r.avf.avf(hs), 0.0) << hwStructName(hs);
        EXPECT_LE(r.avf.avf(hs), 1.0) << hwStructName(hs);
        EXPECT_LE(r.avf.avf(hs), r.avf.occupancy(hs) + 1e-9)
            << hwStructName(hs);
        EXPECT_LE(r.avf.occupancy(hs), 1.0 + 1e-9) << hwStructName(hs);
    }
}

TEST(CoreIntegration, ThreadAvfSumsBelowAggregateBound)
{
    Simulator sim(tinyConfig(2), tinyMix(2));
    auto r = sim.run(10000);
    // For shared structures, thread contributions sum to the aggregate.
    for (auto hs : {HwStruct::IQ, HwStruct::RegFile, HwStruct::FU}) {
        double sum = 0;
        for (ThreadId t = 0; t < 2; ++t)
            sum += r.avf.threadAvf(hs, t);
        EXPECT_NEAR(sum, r.avf.avf(hs), 1e-9) << hwStructName(hs);
    }
}

} // namespace
} // namespace smtavf
