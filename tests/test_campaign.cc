/**
 * @file
 * Differential and determinism tests for the parallel campaign runner:
 * a campaign must produce bit-identical SimResults whether it runs as a
 * plain serial runMix() loop, on a 1-worker pool, or on an N-worker
 * pool, and a seeded injection campaign must yield the verdict counts
 * of a serial loop over one Rng(seed) stream for every worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "sim/campaign.hh"

namespace smtavf
{
namespace
{

/** Small budget: enough cycles to exercise every structure, fast. */
constexpr std::uint64_t kBudget = 4000;

unsigned
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<Experiment>
fourMixCampaign()
{
    const char *names[] = {"2ctx-cpu-A", "2ctx-mix-A", "2ctx-mem-A",
                           "2ctx-cpu-B"};
    std::vector<Experiment> exps;
    for (std::size_t i = 0; i < 4; ++i) {
        Experiment e = makeExperiment(findMix(names[i]),
                                      FetchPolicyKind::Icount, kBudget);
        e.cfg.seed = 11 + i; // distinct seeds, as a sweep would use
        exps.push_back(std::move(e));
    }
    return exps;
}

/** Bit-identical comparison of everything a SimResult reports. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalCommitted, b.totalCommitted);
    EXPECT_EQ(a.ipc, b.ipc); // exact: same arithmetic, same order

    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        EXPECT_EQ(a.threads[t].benchmark, b.threads[t].benchmark);
        EXPECT_EQ(a.threads[t].committed, b.threads[t].committed);
        EXPECT_EQ(a.threads[t].ipc, b.threads[t].ipc);
    }

    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(a.avf.avf(s), b.avf.avf(s)) << hwStructName(s);
        EXPECT_EQ(a.avf.residualAvf(s), b.avf.residualAvf(s))
            << hwStructName(s);
        EXPECT_EQ(a.avf.occupancy(s), b.avf.occupancy(s))
            << hwStructName(s);
        for (std::size_t t = 0; t < a.threads.size(); ++t) {
            auto tid = static_cast<ThreadId>(t);
            EXPECT_EQ(a.avf.threadAvf(s, tid), b.avf.threadAvf(s, tid))
                << hwStructName(s);
        }
    }

    ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
    for (const auto &[name, value] : a.stats.all())
        EXPECT_EQ(value, b.stats.get(name)) << name;
}

TEST(SplitSeed, StableDistinctAndIndexSensitive)
{
    EXPECT_EQ(splitSeed(1, 0), splitSeed(1, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(splitSeed(42, i));
    EXPECT_EQ(seen.size(), 1000u); // no collisions among siblings
    EXPECT_NE(splitSeed(1, 0), splitSeed(2, 0));
    EXPECT_NE(splitSeed(1, 0), splitSeed(1, 1));
}

TEST(CampaignDifferential, SerialVsOneVsManyWorkersBitIdentical)
{
    auto exps = fourMixCampaign();

    // Plain serial loop: the pre-campaign baseline.
    std::vector<SimResult> serial;
    for (const auto &e : exps)
        serial.push_back(runMix(e.cfg, e.mix, e.budget));

    for (unsigned jobs : {1u, 2u, hardwareJobs()}) {
        CampaignRunner pool(jobs);
        auto parallel = pool.run(exps);
        ASSERT_EQ(parallel.size(), serial.size()) << jobs << " workers";
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(std::to_string(jobs) + " workers, run " +
                         std::to_string(i));
            expectIdentical(serial[i], parallel[i]);
        }
    }
}

TEST(CampaignDifferential, ResultsArriveInSubmissionOrder)
{
    auto exps = fourMixCampaign();
    CampaignRunner pool(2);
    auto results = pool.run(exps);
    ASSERT_EQ(results.size(), exps.size());
    for (std::size_t i = 0; i < exps.size(); ++i)
        EXPECT_EQ(results[i].mixName, exps[i].mix.name);
}

TEST(CampaignDifferential, SingleThreadBaselinesMatchSerialLoop)
{
    auto cfg = table1Config(2);
    const auto &mix = findMix("2ctx-mem-A");
    auto smt = runMix(cfg, mix, kBudget);

    std::vector<SimResult> serial;
    for (unsigned tid = 0; tid < mix.contexts; ++tid)
        serial.push_back(
            runSingleThreadBaseline(cfg, mix, static_cast<ThreadId>(tid),
                                    smt.threads[tid].committed));

    CampaignRunner pool(2);
    auto parallel = runSingleThreadBaselines(pool, cfg, mix, smt);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("baseline " + std::to_string(i));
        expectIdentical(serial[i], parallel[i]);
    }
}

TEST(CampaignDifferential, MasterSeedDerivationIsScheduleIndependent)
{
    auto exps = fourMixCampaign();
    deriveSeeds(exps, 99);
    for (std::size_t i = 0; i < exps.size(); ++i)
        EXPECT_EQ(exps[i].cfg.seed, splitSeed(99, i));

    CampaignRunner one(1), many(3);
    auto a = one.run(exps);
    auto b = many.run(exps);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("run " + std::to_string(i));
        expectIdentical(a[i], b[i]);
    }
}

TEST(CampaignRunner, ForEachVisitsEveryIndexExactlyOnce)
{
    CampaignRunner pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(CampaignRunner, ForEachPropagatesExceptions)
{
    CampaignRunner pool(2);
    EXPECT_THROW(pool.forEach(8,
                              [](std::size_t i) {
                                  if (i == 3)
                                      throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    pool.forEach(4, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 4);
}

TEST(CampaignRunner, ProgressReportsEveryRunWithTiming)
{
    auto exps = fourMixCampaign();
    CampaignRunner pool(2);
    std::vector<CampaignProgress> seen;
    auto results = pool.run(exps, [&](const CampaignProgress &p) {
        seen.push_back(p); // serialized by the pool's progress lock
    });
    ASSERT_EQ(seen.size(), exps.size());
    std::set<std::size_t> indices;
    for (const auto &p : seen) {
        EXPECT_EQ(p.total, exps.size());
        EXPECT_GE(p.seconds, 0.0);
        indices.insert(p.index);
    }
    EXPECT_EQ(indices.size(), exps.size());
    // `completed` counts monotonically 1..N in delivery order.
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i].completed, i + 1);
}

class InjectionDeterminism : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto cfg = table1Config(2);
        cfg.recordCommitTrace = true;
        trace_ = runMix(cfg, findMix("2ctx-mix-A"), kBudget).commitTrace;
        ASSERT_TRUE(trace_);
        ASSERT_FALSE(trace_->empty());
    }

    std::shared_ptr<const CommitTrace> trace_;
};

TEST_F(InjectionDeterminism, RepeatedSeededCampaignsAreIdentical)
{
    InjectionCampaign campaign(*trace_);
    constexpr std::uint64_t trials = 2000;

    CampaignRunner pool(2);
    auto first = runInjection(pool, campaign, trials, 77);
    auto second = runInjection(pool, campaign, trials, 77);

    EXPECT_EQ(first.trials, trials);
    EXPECT_EQ(first.masked, second.masked);
    EXPECT_EQ(first.corrupted, second.corrupted);
    EXPECT_EQ(first.skipped, second.skipped);
    EXPECT_EQ(first.masked + first.corrupted + first.skipped, trials);
}

TEST_F(InjectionDeterminism, VerdictCountsIndependentOfWorkerCount)
{
    InjectionCampaign campaign(*trace_);
    constexpr std::uint64_t trials = 2000;

    CampaignRunner one(1);
    auto baseline = runInjection(one, campaign, trials, 123);
    for (unsigned jobs : {2u, hardwareJobs()}) {
        CampaignRunner pool(jobs);
        auto res = runInjection(pool, campaign, trials, 123);
        EXPECT_EQ(res.masked, baseline.masked) << jobs << " workers";
        EXPECT_EQ(res.corrupted, baseline.corrupted) << jobs;
        EXPECT_EQ(res.skipped, baseline.skipped) << jobs;
    }
}

TEST_F(InjectionDeterminism, MatchesSerialLoopOverOneStream)
{
    // The reference driver: one Rng(seed) stream, one origin per trial in
    // trial order, each adjudicated in turn.
    InjectionCampaign campaign(*trace_);
    constexpr std::uint64_t trials = 2000;
    constexpr std::uint64_t seed = 31;
    InjectionResult serial;
    Rng rng(seed);
    for (std::uint64_t t = 0; t < trials; ++t) {
        auto origin =
            static_cast<std::size_t>(rng.uniform(campaign.traceSize()));
        ++serial.trials;
        switch (campaign.injectAt(origin)) {
          case InjectionOutcome::Masked:
            ++serial.masked;
            break;
          case InjectionOutcome::Corrupted:
            ++serial.corrupted;
            break;
          case InjectionOutcome::Skipped:
            ++serial.skipped;
            break;
        }
    }

    for (unsigned jobs : {1u, 2u, hardwareJobs()}) {
        CampaignRunner pool(jobs);
        auto res = runInjection(pool, campaign, trials, seed);
        EXPECT_EQ(res.trials, serial.trials) << jobs << " workers";
        EXPECT_EQ(res.masked, serial.masked) << jobs << " workers";
        EXPECT_EQ(res.corrupted, serial.corrupted) << jobs << " workers";
        EXPECT_EQ(res.skipped, serial.skipped) << jobs << " workers";
    }
}

TEST_F(InjectionDeterminism, DifferentSeedsSampleDifferentOrigins)
{
    InjectionCampaign campaign(*trace_);
    CampaignRunner pool(2);
    auto a = runInjection(pool, campaign, 2000, 1);
    auto b = runInjection(pool, campaign, 2000, 2);
    // Same trace, same trial count; the verdict split should move at
    // least a little when the whole origin sample changes.
    EXPECT_EQ(a.trials, b.trials);
    bool any_difference = a.masked != b.masked ||
                          a.corrupted != b.corrupted ||
                          a.skipped != b.skipped;
    EXPECT_TRUE(any_difference);
}

} // namespace
} // namespace smtavf
