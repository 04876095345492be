/**
 * @file
 * Integration tests for the Section-5 extension features: PSTALL and RAT
 * fetch policies, static IQ partitioning, AVF timelines, and the
 * custom-profile simulator entry point.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

TEST(ExtensionPolicies, PStallRunsAndReducesIqAvfOnMixWorkload)
{
    // On all-MEM mixes the keep-one-thread-fetching fallback fires nearly
    // every cycle (everyone is missing), so — exactly like STALL — the
    // effect shows on MIX workloads where gated memory-bound threads give
    // way to CPU-bound ones.
    auto base = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::Icount,
                       40000);
    auto pstall = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::PStall,
                         40000);
    EXPECT_GE(pstall.totalCommitted, 40000u);
    EXPECT_LT(pstall.avf.avf(HwStruct::IQ), base.avf.avf(HwStruct::IQ));
}

TEST(ExtensionPolicies, PStallAtLeastMatchesStallOnMixWorkload)
{
    // The Section-5 motivation: gating at fetch (predicted) admits fewer
    // ACE bits than gating at miss detection.
    auto stall = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::Stall,
                        40000);
    auto pstall = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::PStall,
                         40000);
    EXPECT_LE(pstall.avf.avf(HwStruct::IQ),
              stall.avf.avf(HwStruct::IQ) * 1.05);
}

TEST(ExtensionPolicies, RatRunsAndBoundsIqAvf)
{
    auto base = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::Icount,
                       40000);
    auto rat = runMix(findMix("4ctx-mix-A"), FetchPolicyKind::Rat, 40000);
    EXPECT_GE(rat.totalCommitted, 40000u);
    EXPECT_LT(rat.avf.avf(HwStruct::IQ), base.avf.avf(HwStruct::IQ));
    for (const auto &t : rat.threads)
        EXPECT_GT(t.committed, 0u);
}

TEST(IqPartitioning, ReducesIqAvfOnMemMix)
{
    auto cfg = table1Config(4);
    auto base = runMix(cfg, findMix("4ctx-mem-A"), 40000);
    cfg.iqPartitioned = true;
    auto part = runMix(cfg, findMix("4ctx-mem-A"), 40000);
    // A clogged thread can hold at most 24 of the 96 entries now.
    EXPECT_LT(part.avf.avf(HwStruct::IQ), base.avf.avf(HwStruct::IQ));
    EXPECT_GE(part.totalCommitted, 40000u);
}

TEST(IqPartitioning, PartitionIsEnforcedAtDispatch)
{
    // With the partition on, no thread ever holds more than
    // iqSize / contexts = 24 issue-queue entries.
    auto cfg = table1Config(4);
    cfg.iqPartitioned = true;
    WorkloadMix m{"clog", 4, MixType::Mem, 'A',
                  {"mcf", "mcf", "mcf", "mcf"}};
    Simulator sim(cfg, m);
    auto &core = sim.core();
    for (int i = 0; i < 3000; ++i) {
        core.tick();
        for (ThreadId t = 0; t < 4; ++t)
            ASSERT_LE(core.structOccupancy(HwStruct::IQ, t), 24u);
    }
}

TEST(AvfTimelineTest, WindowsCoverTheRun)
{
    auto cfg = table1Config(2);
    cfg.avfSampleCycles = 1000;
    auto r = runMix(cfg, findMix("2ctx-mix-A"), 20000);
    ASSERT_NE(r.timeline, nullptr);
    const auto &rows = r.timeline->data();
    EXPECT_GE(rows.size(), 2u);

    // Windowed ACE mass sums back to the aggregate AVF.
    double total = 0;
    double cycles = 0;
    for (std::size_t w = 0; w < rows.size(); ++w) {
        // windows are equal-length except possibly the last
        double len = w + 1 < rows.size()
                         ? 1000.0
                         : static_cast<double>(r.cycles) -
                               1000.0 * (rows.size() - 1);
        total += rows[w].avf[static_cast<std::size_t>(HwStruct::IQ)] * len;
        cycles += len;
    }
    EXPECT_NEAR(total / cycles, r.avf.avf(HwStruct::IQ), 1e-9);
}

TEST(AvfTimelineTest, DisabledByDefault)
{
    auto r = runMix(findMix("2ctx-mix-A"), FetchPolicyKind::Icount, 5000);
    EXPECT_EQ(r.timeline, nullptr);
}

TEST(AvfTimelineTest, VariabilityIsFiniteAndNonNegative)
{
    auto cfg = table1Config(2);
    cfg.avfSampleCycles = 500;
    auto r = runMix(cfg, findMix("2ctx-mem-A"), 20000);
    ASSERT_NE(r.timeline, nullptr);
    double v = r.timeline->variability(HwStruct::IQ);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 10.0);
}

TEST(AvfTimelineTest, RejectsZeroInterval)
{
    ThrowGuard guard;
    AvfLedger ledger(1);
    EXPECT_THROW(
        AvfIntervalSeries(ledger, AvfIntervalSeries::Unit::Cycles, 0),
        SimError);
}

TEST(L2AvfTracking, OffByDefault)
{
    auto r = runMix(findMix("2ctx-mix-A"), FetchPolicyKind::Icount, 5000);
    EXPECT_EQ(r.avf.occupancy(HwStruct::L2Data), 0.0);
    EXPECT_EQ(r.avf.avf(HwStruct::L2Tag), 0.0);
}

TEST(L2AvfTracking, TracksWhenEnabled)
{
    auto cfg = table1Config(2);
    cfg.avf.trackL2Avf = true;
    auto r = runMix(cfg, findMix("2ctx-mem-A"), 20000);
    EXPECT_GT(r.avf.occupancy(HwStruct::L2Data), 0.0);
    EXPECT_LE(r.avf.avf(HwStruct::L2Data),
              r.avf.occupancy(HwStruct::L2Data) + 1e-12);
    EXPECT_LE(r.avf.avf(HwStruct::L2Tag), 1.0);
}

TEST(L2AvfTracking, ResidentLinesCloseAtEndOfRun)
{
    // Prewarm fills the L2 and few of its lines are evicted in a short
    // run; each one still resident must close when the run ends, so the
    // tag array reads as occupied for almost the whole run.
    auto cfg = table1Config(2);
    cfg.avf.trackL2Avf = true;
    auto r = runMix(cfg, findMix("2ctx-mem-A"), 20000);
    EXPECT_GT(r.avf.occupancy(HwStruct::L2Tag), 0.99);
    EXPECT_LE(r.avf.occupancy(HwStruct::L2Tag), 1.0);
}

TEST(L2AvfTracking, DoesNotPerturbTiming)
{
    auto cfg = table1Config(2);
    auto base = runMix(cfg, findMix("2ctx-mix-A"), 10000);
    cfg.avf.trackL2Avf = true;
    auto tracked = runMix(cfg, findMix("2ctx-mix-A"), 10000);
    EXPECT_EQ(base.cycles, tracked.cycles);
    EXPECT_DOUBLE_EQ(base.avf.avf(HwStruct::IQ),
                     tracked.avf.avf(HwStruct::IQ));
}

TEST(CustomProfiles, SimulatorAcceptsExplicitProfiles)
{
    BenchmarkProfile p = findProfile("eon");
    p.name = "my-workload";
    auto cfg = table1Config(2);
    Simulator sim(cfg, {p, p}, "custom-pair");
    auto r = sim.run(8000);
    EXPECT_GE(r.totalCommitted, 8000u);
    EXPECT_EQ(r.mixName, "custom-pair");
    EXPECT_EQ(r.threads[0].benchmark, "my-workload");
}

TEST(CustomProfiles, CountMustMatchContexts)
{
    ThrowGuard guard;
    BenchmarkProfile p = findProfile("eon");
    auto cfg = table1Config(2);
    EXPECT_THROW(Simulator(cfg, {p}, "short"), SimError);
}

TEST(CustomProfiles, InvalidProfileIsFatal)
{
    ThrowGuard guard;
    BenchmarkProfile p = findProfile("eon");
    p.loadFrac = 2.0;
    auto cfg = table1Config(1);
    EXPECT_THROW(Simulator(cfg, {p}, "bad"), SimError);
}

} // namespace
} // namespace smtavf
