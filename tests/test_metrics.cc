/**
 * @file
 * Unit tests for the performance/reliability metrics.
 */

#include <gtest/gtest.h>

#include "metrics/metrics.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

SimResult
makeResult(std::vector<double> thread_ipcs)
{
    SimResult r;
    r.cycles = 1000;
    for (double ipc : thread_ipcs) {
        ThreadPerf t;
        t.ipc = ipc;
        t.committed = static_cast<std::uint64_t>(ipc * 1000);
        r.totalCommitted += t.committed;
        r.threads.push_back(t);
    }
    r.ipc = static_cast<double>(r.totalCommitted) / r.cycles;
    return r;
}

TEST(MetricsTest, WeightedSpeedupSumsRatios)
{
    auto r = makeResult({1.0, 0.5});
    EXPECT_DOUBLE_EQ(weightedSpeedup(r, {2.0, 1.0}), 0.5 + 0.5);
}

TEST(MetricsTest, WeightedSpeedupMismatchFatal)
{
    ThrowGuard guard;
    auto r = makeResult({1.0, 0.5});
    EXPECT_THROW(weightedSpeedup(r, {2.0}), SimError);
    EXPECT_THROW(weightedSpeedup(r, {2.0, 0.0}), SimError);
}

TEST(MetricsTest, HarmonicWeightedIpcBalanced)
{
    auto r = makeResult({1.0, 1.0});
    // Both threads at weighted IPC 0.5 -> harmonic mean 0.5.
    EXPECT_DOUBLE_EQ(harmonicWeightedIpc(r, {2.0, 2.0}), 0.5);
}

TEST(MetricsTest, HarmonicPenalizesImbalance)
{
    auto balanced = makeResult({1.0, 1.0});
    auto skewed = makeResult({1.9, 0.1});
    double hb = harmonicWeightedIpc(balanced, {2.0, 2.0});
    double hs = harmonicWeightedIpc(skewed, {2.0, 2.0});
    EXPECT_GT(hb, hs) << "equal progress must score higher";
    // Same weighted speedup though:
    EXPECT_DOUBLE_EQ(weightedSpeedup(balanced, {2.0, 2.0}),
                     weightedSpeedup(skewed, {2.0, 2.0}));
}

TEST(MetricsTest, HarmonicZeroThreadYieldsZero)
{
    auto r = makeResult({1.0, 0.0});
    EXPECT_DOUBLE_EQ(harmonicWeightedIpc(r, {1.0, 1.0}), 0.0);
}

TEST(MetricsTest, MitfIsIpcOverAvf)
{
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.addInterval(HwStruct::IQ, 0, 100, 0, 50, true); // AVF 0.5 over 100
    l.finalize(100);

    auto r = makeResult({2.0});
    r.avf = AvfReport::fromLedger(l);
    EXPECT_DOUBLE_EQ(r.mitf(HwStruct::IQ), 2.0 / 0.5);
}

TEST(MetricsTest, MitfZeroAvfIsZero)
{
    auto r = makeResult({2.0});
    AvfLedger l(1);
    l.setStructureBits(HwStruct::IQ, 100);
    l.finalize(100);
    r.avf = AvfReport::fromLedger(l);
    EXPECT_DOUBLE_EQ(r.mitf(HwStruct::IQ), 0.0);
}

TEST(ReportTest, FigureStructsMatchPaperOrder)
{
    const auto &order = AvfReport::figureStructs();
    ASSERT_EQ(order.size(), 8u);
    EXPECT_EQ(order.front(), HwStruct::IQ);
    EXPECT_EQ(order.back(), HwStruct::LsqTag);
}

TEST(ReportTest, StrIncludesTrackedStructures)
{
    AvfLedger l(2);
    l.setStructureBits(HwStruct::IQ, 100);
    l.addInterval(HwStruct::IQ, 1, 50, 0, 10, true);
    l.finalize(100);
    auto report = AvfReport::fromLedger(l);
    auto s = report.str();
    EXPECT_NE(s.find("IQ"), std::string::npos);
    EXPECT_NE(s.find("T1"), std::string::npos);
}

} // namespace
} // namespace smtavf
