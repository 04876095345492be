/**
 * @file
 * Late-added edge coverage: pre-warming behaviour, report rendering with
 * optional structures, and odd-but-legal configurations.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace smtavf
{
namespace
{

TEST(Prewarm, DisablingItCostsColdMisses)
{
    auto warm_cfg = table1Config(2);
    auto cold_cfg = warm_cfg;
    cold_cfg.prewarmCaches = false;

    auto warm = runMix(warm_cfg, findMix("2ctx-cpu-A"), 10000);
    auto cold = runMix(cold_cfg, findMix("2ctx-cpu-A"), 10000);

    EXPECT_GT(cold.stats.get("il1.missRate"),
              warm.stats.get("il1.missRate"));
    EXPECT_GE(cold.cycles, warm.cycles)
        << "cold caches cannot make the run faster";
}

TEST(Prewarm, DoesNotChangeCommittedWork)
{
    // Pre-warming affects timing only; the architectural stream is the
    // same, so the same budget commits the same instructions.
    auto cfg = table1Config(2);
    auto warm = runMix(cfg, findMix("2ctx-mix-A"), 9000);
    cfg.prewarmCaches = false;
    auto cold = runMix(cfg, findMix("2ctx-mix-A"), 9000);
    EXPECT_EQ(warm.threads[0].benchmark, cold.threads[0].benchmark);
    EXPECT_GE(warm.totalCommitted, 9000u);
    EXPECT_GE(cold.totalCommitted, 9000u);
}

TEST(ReportRendering, IncludesL2RowsOnlyWhenTracked)
{
    auto cfg = table1Config(2);
    auto off = runMix(cfg, findMix("2ctx-mix-A"), 5000);
    EXPECT_EQ(off.avf.str().find("L2_data"), std::string::npos);

    cfg.avf.trackL2Avf = true;
    auto on = runMix(cfg, findMix("2ctx-mix-A"), 5000);
    EXPECT_NE(on.avf.str().find("L2_data"), std::string::npos);
    EXPECT_NE(on.avf.str().find("L2_tag"), std::string::npos);
}

TEST(ReportRendering, ShowsEveryActiveThreadColumn)
{
    auto r = runMix(findMix("8ctx-mem-A"), FetchPolicyKind::Icount, 16000);
    auto s = r.avf.str();
    for (int t = 0; t < 8; ++t)
        EXPECT_NE(s.find("T" + std::to_string(t)), std::string::npos);
}

TEST(OddConfigs, SingleFetchThreadPerCycleWorksAtFourContexts)
{
    auto cfg = table1Config(4);
    cfg.fetchThreadsPerCycle = 1;
    auto r = runMix(cfg, findMix("4ctx-cpu-A"), 20000);
    EXPECT_GE(r.totalCommitted, 20000u);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 0u);
}

TEST(OddConfigs, HugeFetchQueueDoesNotBreakIcount)
{
    auto cfg = table1Config(2);
    cfg.fetchQueueSize = 128;
    auto r = runMix(cfg, findMix("2ctx-mix-A"), 10000);
    EXPECT_GE(r.totalCommitted, 10000u);
}

TEST(OddConfigs, SamplingEveryCycleWorks)
{
    auto cfg = table1Config(2);
    cfg.avfSampleCycles = 1;
    auto r = runMix(cfg, findMix("2ctx-cpu-A"), 2000);
    ASSERT_NE(r.timeline, nullptr);
    EXPECT_EQ(r.timeline->data().size(),
              static_cast<std::size_t>(r.cycles));
}

TEST(OddConfigs, EverythingOnAtOnce)
{
    // All optional machinery simultaneously: timeline + trace + L2 AVF +
    // partitioning + a non-default policy.
    auto cfg = table1Config(4);
    cfg.fetchPolicy = FetchPolicyKind::PStall;
    cfg.iqPartitioned = true;
    cfg.avfSampleCycles = 2000;
    cfg.recordCommitTrace = true;
    cfg.avf.trackL2Avf = true;
    auto r = runMix(cfg, findMix("4ctx-mix-B"), 20000);
    EXPECT_GE(r.totalCommitted, 20000u);
    EXPECT_NE(r.timeline, nullptr);
    EXPECT_NE(r.commitTrace, nullptr);
    EXPECT_GT(r.avf.occupancy(HwStruct::L2Data), 0.0);
}

} // namespace
} // namespace smtavf
