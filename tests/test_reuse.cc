/**
 * @file
 * Batched-child differential suite: batching runs per sandboxed child
 * (--runs-per-child) must be invisible in the results.
 *
 * The correctness bar is byte-identical `run v3` journals: a campaign
 * that batches runs per child must journal exactly the bytes a
 * child-per-run campaign writes, across context counts and fetch
 * policies, and thread mode must agree with both. Simulator::reset, a
 * deprecated shim that rebuilds in place, must equal fresh construction.
 * The batch-chaos tests then prove the crash story: a child
 * dying mid-batch loses only the in-flight run — completed frames
 * survive, the remainder is re-dispatched without being charged an
 * attempt, and retry/quarantine accounting stays per-run.
 *
 * Rides in the `chaos` binary (not `tsan`): the batch tests fork
 * children out of a threaded pool and kill them with real signals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/campaign.hh"
#include "sim/errors.hh"
#include "sim/experiment.hh"
#include "sim/isolate.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

constexpr std::uint64_t kBudget = 3000;

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Die by a real signal inside the forked child (see test_isolate.cc). */
[[noreturn]] void
dieBySignal(int sig)
{
    std::signal(sig, SIG_DFL);
    ::raise(sig);
    ::_exit(99); // not reached
}

/** Bit-exact result comparison via the journal wire format. */
std::string
wire(const SimResult &r)
{
    return serializeRun(0, r);
}

/**
 * The acceptance matrix: {2, 4, 8} contexts x {ICOUNT, FLUSH}, three
 * seeds per cell, so a batch holds runs of one shape and of several.
 */
std::vector<Experiment>
reuseMatrix()
{
    std::vector<Experiment> exps;
    for (unsigned ctx : {2u, 4u, 8u}) {
        const auto &mix =
            findMix(std::to_string(ctx) + "ctx-mix-A");
        for (auto policy : {FetchPolicyKind::Icount, FetchPolicyKind::Flush})
            for (std::uint64_t seed : {31u, 32u, 33u}) {
                Experiment e = makeExperiment(mix, policy, kBudget);
                e.cfg.seed = seed;
                exps.push_back(std::move(e));
            }
    }
    return exps;
}

// --- the reset() shim ----------------------------------------------------

TEST(SimulatorReset, ResetMatchesFreshConstructionBitExactly)
{
    auto cfg = table1Config(4);
    cfg.seed = 7;
    const auto &mix = findMix("4ctx-mix-A");

    Simulator sim(cfg, mix);
    SimResult first = sim.run(kBudget);
    EXPECT_EQ(wire(first), wire(Simulator(cfg, mix).run(kBudget)));

    // Re-seed in place: the rebuilt instance must compute exactly what a
    // fresh construction computes, including the repeat of its own seed.
    auto cfg2 = cfg;
    cfg2.seed = 99;
    sim.reset(cfg2, mix);
    EXPECT_EQ(wire(sim.run(kBudget)), wire(Simulator(cfg2, mix).run(kBudget)));

    sim.reset(cfg, mix);
    EXPECT_EQ(wire(sim.run(kBudget)), wire(first));

    // Any target, whatever its shape: contexts, workload and policy.
    auto small = table1Config(2);
    small.fetchPolicy = FetchPolicyKind::Icount;
    Simulator other(small, findMix("2ctx-mix-A"));
    other.run(kBudget);
    auto wide = table1Config(4);
    wide.fetchPolicy = FetchPolicyKind::Flush;
    const auto &mem = findMix("4ctx-mem-A");
    other.reset(wide, mem);
    EXPECT_EQ(wire(other.run(kBudget)),
              wire(Simulator(wide, mem).run(kBudget)));
}

// --- the differential guarantees -----------------------------------------

TEST(ReuseDifferential, BatchedChildrenAreByteIdenticalToFreshChildren)
{
    const std::string bj = "reuse_diff_batched.journal";
    const std::string fj = "reuse_diff_perrun.journal";
    std::remove(bj.c_str());
    std::remove(fj.c_str());

    auto exps = reuseMatrix();
    CampaignOptions batched;
    batched.isolate = IsolateMode::Process;
    batched.runsPerChild = 5; // straddles the 6-run same-shape cells
    batched.journalPath = bj;
    CampaignOptions fresh;
    fresh.isolate = IsolateMode::Process;
    fresh.journalPath = fj;

    CampaignRunner pool(1);
    auto brep = runTolerant(pool, exps, batched);
    auto frep = runTolerant(pool, exps, fresh);
    ASSERT_TRUE(brep.allOk());
    ASSERT_TRUE(frep.allOk());
    for (std::size_t i = 0; i < exps.size(); ++i)
        EXPECT_EQ(wire(brep.outcomes[i].result),
                  wire(frep.outcomes[i].result))
            << exps[i].label;
    EXPECT_EQ(readLines(bj), readLines(fj));

    std::remove(bj.c_str());
    std::remove(fj.c_str());
}

TEST(ReuseDifferential, MultiWorkerModesAgreeAsRecordSets)
{
    const std::string tj = "reuse_diff_threads4.journal";
    const std::string pj = "reuse_diff_batched4.journal";
    std::remove(tj.c_str());
    std::remove(pj.c_str());

    auto exps = reuseMatrix();
    CampaignOptions threads;
    threads.journalPath = tj;
    CampaignOptions batched;
    batched.isolate = IsolateMode::Process;
    batched.runsPerChild = 4;
    batched.journalPath = pj;

    CampaignRunner pool(4); // append order may differ; content must not
    ASSERT_TRUE(runTolerant(pool, exps, threads).allOk());
    ASSERT_TRUE(runTolerant(pool, exps, batched).allOk());

    auto tl = readLines(tj);
    auto pl = readLines(pj);
    std::sort(tl.begin(), tl.end());
    std::sort(pl.begin(), pl.end());
    EXPECT_EQ(tl, pl);

    std::remove(tj.c_str());
    std::remove(pj.c_str());
}

// --- batch crash attribution ---------------------------------------------

std::vector<Experiment>
fourRunBatch()
{
    const char *names[] = {"2ctx-cpu-A", "2ctx-mix-A", "2ctx-mem-A",
                           "2ctx-cpu-B"};
    std::vector<Experiment> exps;
    for (std::size_t i = 0; i < 4; ++i) {
        Experiment e = makeExperiment(findMix(names[i]),
                                      FetchPolicyKind::Icount, kBudget);
        e.cfg.seed = 21 + i;
        exps.push_back(std::move(e));
    }
    return exps;
}

TEST(BatchChaos, MidBatchCrashRetriesOnlyTheRemainder)
{
    const std::string marker = "reuse_batch_transient.marker";
    std::remove(marker.c_str());

    auto exps = fourRunBatch();
    CampaignOptions opt;
    opt.isolate = IsolateMode::Process;
    opt.runsPerChild = 4;
    opt.retries = 2;
    // First incarnation of the child crashes while run 2 is in flight;
    // the marker makes the re-dispatched remainder succeed.
    opt.runFn = [&](const Experiment &e, std::size_t i) {
        if (i == 2 && !fileExists(marker)) {
            {
                std::ofstream m(marker);
                m << "x";
            }
            dieBySignal(SIGSEGV);
        }
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);

    // Runs 0 and 1 completed before the crash: their frames survived and
    // they were never re-attempted. Run 2 was attributed the death and
    // retried; run 3 rode the remainder batch without an attempt charged
    // for the crash it did not cause.
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_EQ(report.outcomes[1].attempts, 1u);
    EXPECT_EQ(report.outcomes[2].attempts, 2u);
    EXPECT_EQ(report.outcomes[3].attempts, 1u);
    for (std::size_t i = 0; i < exps.size(); ++i) {
        ASSERT_EQ(report.outcomes[i].status, RunStatus::Ok) << i;
        EXPECT_EQ(wire(report.outcomes[i].result),
                  wire(runExperiment(exps[i])))
            << i;
    }
    EXPECT_EQ(report.outcomes[2].crash, CrashKind::None); // last attempt ok
    std::remove(marker.c_str());
}

TEST(BatchChaos, PersistentCrashQuarantinesOnlyTheCrashingRun)
{
    const std::string journal = "reuse_batch_quarantine.journal";
    std::remove(journal.c_str());

    auto exps = fourRunBatch();
    CampaignOptions opt;
    opt.isolate = IsolateMode::Process;
    opt.runsPerChild = 4;
    opt.retries = 3;
    opt.journalPath = journal;
    opt.runFn = [](const Experiment &e, std::size_t i) {
        if (i == 2)
            dieBySignal(SIGSEGV);
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);

    const RunOutcome &o = report.outcomes[2];
    EXPECT_EQ(o.status, RunStatus::Quarantined); // same death twice
    EXPECT_EQ(o.attempts, 2u);
    EXPECT_EQ(o.crash, CrashKind::Segv);
    EXPECT_NE(o.error.find("SIGSEGV"), std::string::npos);

    for (std::size_t i : {0u, 1u, 3u}) {
        ASSERT_EQ(report.outcomes[i].status, RunStatus::Ok) << i;
        EXPECT_EQ(report.outcomes[i].attempts, 1u) << i;
    }
    // The journal holds exactly the completed runs: the two framed
    // before the first crash and the remainder run — never the
    // quarantined one.
    EXPECT_EQ(loadJournal(journal).size(), 3u);
    std::remove(journal.c_str());
}

// --- journal scale -------------------------------------------------------

TEST(JournalScale, MultiMegabyteShardsFsckAndMergeStreaming)
{
    const std::string shard_a = "reuse_scale_a.journal";
    const std::string shard_b = "reuse_scale_b.journal";
    const std::string merged = "reuse_scale_merged.journal";
    std::remove(shard_a.c_str());
    std::remove(shard_b.c_str());
    std::remove(merged.c_str());

    // One real record template, re-fingerprinted: the merge path cares
    // about framing and offsets, not simulated variety.
    SimResult r = runExperiment(fourRunBatch()[0]);
    const std::string probe = serializeRun(1, r);
    // Size the synthetic journals in the multi-MB range the streaming
    // fsck/merge rewrite exists for (> 4 MB combined).
    const std::size_t n =
        (2u * 1024 * 1024) / (probe.size() + 1) + 1;

    {
        std::ofstream a(shard_a), b(shard_b);
        a << "# shard a\n";
        b << "# shard b\n";
        for (std::size_t i = 1; i <= n; ++i) {
            const std::string line = serializeRun(i, r);
            (i % 2 ? a : b) << line << '\n';
            if (i % 101 == 0)
                b << line << '\n'; // cross-shard duplicates must dedup
        }
    }

    auto fa = fsckJournal(shard_a);
    auto fb = fsckJournal(shard_b);
    EXPECT_TRUE(fa.clean());
    EXPECT_TRUE(fb.clean());
    EXPECT_EQ(fa.records + fb.records, n + n / 101);

    EXPECT_EQ(mergeJournals({shard_a, shard_b}, merged), n);
    auto fm = fsckJournal(merged);
    EXPECT_TRUE(fm.clean());
    EXPECT_EQ(fm.records, n);

    // Fingerprint-sorted, first-wins, bytes preserved: parsing the
    // merged file back recovers fingerprints 1..n in order.
    auto lines = readLines(merged);
    ASSERT_EQ(lines.size(), n);
    std::uint64_t fp = 0;
    SimResult back;
    ASSERT_TRUE(parseRun(lines.front(), fp, back));
    EXPECT_EQ(fp, 1u);
    ASSERT_TRUE(parseRun(lines.back(), fp, back));
    EXPECT_EQ(fp, n);
    EXPECT_EQ(lines.back(), serializeRun(n, r));

    std::remove(shard_a.c_str());
    std::remove(shard_b.c_str());
    std::remove(merged.c_str());
}

TEST(JournalScale, ReusedAppendBufferKeepsRecordsIntact)
{
    const std::string path = "reuse_journal_buffer.journal";
    std::remove(path.c_str());

    SimResult r = runExperiment(fourRunBatch()[0]);
    {
        RunJournal j(path);
        for (std::uint64_t fp = 1; fp <= 64; ++fp)
            j.append(fp, r); // one scratch buffer, 64 single write(2)s
        j.comment("buffer reuse check");
    }
    std::size_t skipped = 0;
    auto map = loadJournal(path, &skipped);
    EXPECT_EQ(map.size(), 64u);
    EXPECT_EQ(skipped, 0u);
    EXPECT_EQ(wire(map.at(17)), wire(r));
    std::remove(path.c_str());
}

} // namespace
} // namespace smtavf
