/**
 * @file
 * Fault-tolerance tests: run isolation and retry/quarantine in
 * runTolerant(), journal round-trips and bit-identical resume, the
 * livelock watchdog, the pipeline invariant checker, and the strict CLI
 * parsing/validation helpers. The fault-injection campaigns use
 * CampaignOptions::runFn test doubles that throw on chosen indices, so
 * every failure path is exercised deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "sim/campaign.hh"
#include "sim/errors.hh"
#include "sim/invariants.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace smtavf
{
namespace
{

constexpr std::uint64_t kBudget = 3000;

std::vector<Experiment>
fourMixCampaign()
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

/** A configuration guaranteed to livelock: cold caches mean the first
 * instruction cannot commit before a full memory round trip (~200
 * cycles), and the watchdog window is far shorter. */
Experiment
livelockExperiment()
{
    Experiment e = makeExperiment(findMix("2ctx-mix-A"),
                                  FetchPolicyKind::Icount, kBudget);
    e.label = "livelocked";
    e.cfg.prewarmCaches = false;
    e.cfg.livelockCycles = 50;
    return e;
}

/** Bit-identical comparison of everything a SimResult reports. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.mixName, b.mixName);
    EXPECT_EQ(a.policyName, b.policyName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalCommitted, b.totalCommitted);
    EXPECT_EQ(a.ipc, b.ipc); // exact, not approximate

    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        EXPECT_EQ(a.threads[t].benchmark, b.threads[t].benchmark);
        EXPECT_EQ(a.threads[t].committed, b.threads[t].committed);
        EXPECT_EQ(a.threads[t].ipc, b.threads[t].ipc);
    }

    EXPECT_EQ(a.avf.numThreads(), b.avf.numThreads());
    EXPECT_EQ(a.avf.cycles(), b.avf.cycles());
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        EXPECT_EQ(a.avf.avf(s), b.avf.avf(s)) << hwStructName(s);
        EXPECT_EQ(a.avf.residualAvf(s), b.avf.residualAvf(s))
            << hwStructName(s);
        EXPECT_EQ(a.avf.occupancy(s), b.avf.occupancy(s)) << hwStructName(s);
        for (std::size_t t = 0; t < a.threads.size(); ++t) {
            auto tid = static_cast<ThreadId>(t);
            EXPECT_EQ(a.avf.threadAvf(s, tid), b.avf.threadAvf(s, tid))
                << hwStructName(s);
        }
    }

    ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
    for (const auto &[name, value] : a.stats.all()) {
        ASSERT_TRUE(b.stats.has(name)) << name;
        EXPECT_EQ(value, b.stats.get(name)) << name;
    }
}

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

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &l : lines)
        out << l << '\n';
}

// --- strict numeric parsing (the CLI's flag validation) -----------------

TEST(StrictParse, AcceptsPlainDecimals)
{
    std::uint64_t v = 1;
    EXPECT_TRUE(strictParseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(strictParseU64("400000", v));
    EXPECT_EQ(v, 400000u);
    EXPECT_TRUE(strictParseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(StrictParse, RejectsEverythingElse)
{
    std::uint64_t v = 0;
    EXPECT_FALSE(strictParseU64(nullptr, v));
    EXPECT_FALSE(strictParseU64("", v));
    EXPECT_FALSE(strictParseU64("abc", v));
    EXPECT_FALSE(strictParseU64("12x", v));
    EXPECT_FALSE(strictParseU64("-3", v));  // no silent wrap to 2^64-3
    EXPECT_FALSE(strictParseU64("+3", v));  // signs are not digits
    EXPECT_FALSE(strictParseU64(" 3", v));
    EXPECT_FALSE(strictParseU64("3 ", v));
    EXPECT_FALSE(strictParseU64("0x10", v));
    EXPECT_FALSE(strictParseU64("18446744073709551616", v)); // overflow
}

// --- MachineConfig::validate ---------------------------------------------

TEST(ConfigValidate, DefaultAndTable1ConfigsAreValid)
{
    EXPECT_EQ(MachineConfig{}.validateMsg(), "");
    for (unsigned ctx : {1u, 2u, 4u, 8u})
        EXPECT_EQ(table1Config(ctx).validateMsg(), "") << ctx;
}

TEST(ConfigValidate, RejectsZeroAndAbsurdParameters)
{
    auto broken = [](auto mutate) {
        MachineConfig cfg;
        mutate(cfg);
        return cfg.validateMsg();
    };
    EXPECT_NE(broken([](auto &c) { c.contexts = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.contexts = maxContexts + 1; }), "");
    EXPECT_NE(broken([](auto &c) { c.fetchWidth = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.issueWidth = 4096; }), "");
    EXPECT_NE(broken([](auto &c) { c.commitWidth = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.fetchThreadsPerCycle = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.fetchThreadsPerCycle = 99; }), "");
    EXPECT_NE(broken([](auto &c) { c.frontLatency = 500; }), "");
    EXPECT_NE(broken([](auto &c) { c.fetchQueueSize = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.iqSize = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.robSize = 1u << 21; }), "");
    EXPECT_NE(broken([](auto &c) { c.lsqSize = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.intPhysRegs = 8; }), "");
    EXPECT_NE(broken([](auto &c) { c.fpPhysRegs = 1u << 21; }), "");
    EXPECT_NE(broken([](auto &c) { c.mem.memLatency = 0; }), "");
    EXPECT_NE(broken([](auto &c) { c.mem.memLatency = 1u << 21; }), "");
    EXPECT_NE(broken([](auto &c) { c.livelockCycles = 2; }), "");
    // 0 disables the watchdog and is valid.
    EXPECT_EQ(broken([](auto &c) { c.livelockCycles = 0; }), "");
}

TEST(ConfigValidate, FatalPathThrowsUnderTestRedirect)
{
    MachineConfig cfg;
    cfg.contexts = 0;
    setLoggingThrows(true);
    EXPECT_THROW(cfg.validate(), SimError);
    setLoggingThrows(false);
}

// --- livelock watchdog ----------------------------------------------------

TEST(Livelock, WatchdogRaisesStructuredErrorWithinBound)
{
    Experiment e = livelockExperiment();
    Simulator sim(e.cfg, e.mix);
    try {
        sim.run(kBudget);
        FAIL() << "expected LivelockError";
    } catch (const LivelockError &err) {
        // Fires as soon as the window is exceeded, long before the
        // memory round trip that would unwedge a cold fetch.
        EXPECT_EQ(err.window, 50u);
        EXPECT_GT(err.cycle, err.window);
        EXPECT_LT(err.cycle, 500u);
        EXPECT_EQ(err.mixName, "2ctx-mix-A");
        ASSERT_EQ(err.threads.size(), 2u);
        for (const auto &t : err.threads)
            EXPECT_EQ(t.committed, 0u);
        EXPECT_NE(std::string(err.what()).find("livelock"),
                  std::string::npos);
        EXPECT_FALSE(err.stateDump.empty());
    }
}

TEST(Livelock, WatchdogFiresOnItsExactCycle)
{
    // Nothing commits from cycle 0, so the watchdog fires on the first
    // cycle past its window, whether the invariant checker caps the
    // quiet-cycle jumps or not.
    for (Cycle invariants : {Cycle{0}, Cycle{16}}) {
        Experiment e = livelockExperiment();
        e.cfg.invariantCheckCycles = invariants;
        Simulator sim(e.cfg, e.mix);
        try {
            sim.run(kBudget);
            ADD_FAILURE() << "expected LivelockError, invariants "
                          << invariants;
        } catch (const LivelockError &err) {
            EXPECT_EQ(err.window, 50u);
            EXPECT_EQ(err.cycle, 51u) << "invariants " << invariants;
        }
    }
}

TEST(Livelock, DisabledWatchdogLetsColdStartRecover)
{
    Experiment e = livelockExperiment();
    e.cfg.livelockCycles = 0; // off: the cold start resolves eventually
    Simulator sim(e.cfg, e.mix);
    auto r = sim.run(500); // tiny budget; just past the first round trip
    EXPECT_GE(r.totalCommitted, 500u);
}

TEST(Livelock, CampaignClassifiesItTimedOutWithoutRetry)
{
    std::vector<Experiment> exps = {
        makeExperiment(findMix("2ctx-cpu-A"), FetchPolicyKind::Icount,
                       kBudget),
        livelockExperiment(),
    };
    CampaignRunner pool(1);
    CampaignOptions opt;
    opt.retries = 3;
    auto report = runTolerant(pool, exps, opt);

    ASSERT_EQ(report.outcomes.size(), 2u);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[1].status, RunStatus::TimedOut);
    // Livelock is deterministic: one attempt despite retries = 3.
    EXPECT_EQ(report.outcomes[1].attempts, 1u);
    EXPECT_NE(report.outcomes[1].error.find("livelock"), std::string::npos);

    EXPECT_FALSE(report.allOk());
    auto fr = report.failureReport();
    EXPECT_NE(fr.find("livelocked"), std::string::npos);
    EXPECT_NE(fr.find("timed-out"), std::string::npos);
}

// --- run isolation, retry and quarantine ---------------------------------

TEST(Tolerant, CampaignSurvivesInjectedFailures)
{
    auto exps = fourMixCampaign();
    int flaky_attempts = 0;
    int unstable_attempts = 0;

    CampaignOptions opt;
    opt.retries = 1;
    opt.runFn = [&](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 1)
            throw std::runtime_error("deterministic corruption");
        if (i == 2 && ++flaky_attempts == 1)
            throw std::runtime_error("transient flake");
        if (i == 3)
            throw std::runtime_error("unstable " +
                                     std::to_string(++unstable_attempts));
        return runExperiment(e);
    };

    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    ASSERT_EQ(report.outcomes.size(), 4u);

    // Healthy run: one attempt, a real result.
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_GE(report.outcomes[0].result.totalCommitted, kBudget);

    // Identical failure twice: quarantined, not retried further.
    EXPECT_EQ(report.outcomes[1].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[1].attempts, 2u);
    EXPECT_EQ(report.outcomes[1].error, "deterministic corruption");

    // Transient failure: the retry with the same seed succeeds.
    EXPECT_EQ(report.outcomes[2].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[2].attempts, 2u);
    EXPECT_TRUE(report.outcomes[2].error.empty());

    // Different message every attempt: plain failure once retries run out.
    EXPECT_EQ(report.outcomes[3].status, RunStatus::Failed);
    EXPECT_EQ(report.outcomes[3].attempts, 2u);
    EXPECT_EQ(report.outcomes[3].error, "unstable 2");

    // Partial results survive and the report names every casualty.
    EXPECT_EQ(report.count(RunStatus::Ok), 2u);
    EXPECT_EQ(report.results().size(), 2u);
    auto fr = report.failureReport();
    EXPECT_NE(fr.find(exps[1].label), std::string::npos);
    EXPECT_NE(fr.find("quarantined"), std::string::npos);
    EXPECT_NE(fr.find("seed " + std::to_string(exps[1].cfg.seed)),
              std::string::npos);
}

TEST(Tolerant, QuarantineWinsOverGenerousRetryBudget)
{
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt;
    opt.retries = 10;
    unsigned calls = 0;
    opt.runFn = [&](const Experiment &, std::size_t) -> SimResult {
        ++calls;
        throw std::runtime_error("same message every time");
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Quarantined);
    EXPECT_EQ(calls, 2u); // never a third attempt
}

TEST(Tolerant, FatalRedirectIsScopedToTheCampaign)
{
    // A SMTAVF_FATAL inside a run must become a caught failure, and the
    // process-wide redirect must be restored afterwards.
    ASSERT_FALSE(loggingThrows());
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt;
    opt.retries = 0;
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        SMTAVF_FATAL("config exploded mid-run");
        return {};
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Failed);
    EXPECT_NE(report.outcomes[0].error.find("config exploded"),
              std::string::npos);
    EXPECT_FALSE(loggingThrows());
}

TEST(Tolerant, BadAllocIsClassifiedOom)
{
    // Thread mode classifies an allocation failure as process mode does:
    // an oom crash, quarantined when it repeats.
    auto exps = fourMixCampaign();
    exps.resize(2);
    CampaignOptions opt;
    opt.runFn = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 1)
            throw std::bad_alloc();
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::None);
    const RunOutcome &o = report.outcomes[1];
    EXPECT_EQ(o.status, RunStatus::Quarantined);
    EXPECT_EQ(o.attempts, 2u);
    EXPECT_EQ(o.crash, CrashKind::Oom);
    EXPECT_NE(o.error.find("memory cap"), std::string::npos);
}

TEST(Tolerant, UnknownThrowIsARunFailure)
{
    // A throw of no known type fails its run instead of escaping the
    // campaign, in thread mode as in a forked child.
    auto exps = fourMixCampaign();
    exps.resize(2);
    CampaignOptions opt;
    opt.runFn = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 0)
            throw 42;
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    CampaignReport report;
    ASSERT_NO_THROW(report = runTolerant(pool, exps, opt));
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
    EXPECT_NE(report.outcomes[0].error.find("unknown exception"),
              std::string::npos);
    EXPECT_EQ(report.outcomes[1].status, RunStatus::Ok);
}

TEST(Tolerant, CancelFlagStopsDispatchButKeepsFinishedWork)
{
    auto exps = fourMixCampaign();
    std::atomic<bool> cancel{false};
    CampaignOptions opt;
    opt.cancel = &cancel;
    opt.runFn = [&](const Experiment &e, std::size_t i) {
        auto r = runExperiment(e);
        if (i == 0)
            cancel.store(true); // the SIGINT handler's effect
        return r;
    };
    CampaignRunner pool(1); // serial: indices run in submission order
    auto report = runTolerant(pool, exps, opt);

    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(report.outcomes[i].status, RunStatus::TimedOut) << i;
        EXPECT_EQ(report.outcomes[i].attempts, 0u) << i;
        EXPECT_NE(report.outcomes[i].error.find("not started"),
                  std::string::npos);
    }
}

TEST(Tolerant, SoftTimeoutExpiresUnstartedRuns)
{
    auto exps = fourMixCampaign();
    CampaignOptions opt;
    opt.softTimeoutSeconds = 1e-9; // already expired at dispatch time
    CampaignRunner pool(2);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.count(RunStatus::TimedOut), 4u);
    for (const auto &o : report.outcomes)
        EXPECT_EQ(o.attempts, 0u);
}

TEST(Tolerant, StatusNamesAreStable)
{
    EXPECT_STREQ(runStatusName(RunStatus::Ok), "ok");
    EXPECT_STREQ(runStatusName(RunStatus::Failed), "failed");
    EXPECT_STREQ(runStatusName(RunStatus::TimedOut), "timed-out");
    EXPECT_STREQ(runStatusName(RunStatus::Quarantined), "quarantined");
}

// --- journal: fingerprints, round trip, resume ----------------------------

TEST(Journal, FingerprintIsStableAndSemanticsSensitive)
{
    auto exps = fourMixCampaign();
    const Experiment &e = exps[0];
    auto fp = experimentFingerprint(e);
    EXPECT_EQ(fp, experimentFingerprint(e)); // stable

    auto mutated = [&](auto mutate) {
        Experiment m = e;
        mutate(m);
        return experimentFingerprint(m);
    };
    // Cosmetic and robustness knobs do not change identity...
    EXPECT_EQ(fp, mutated([](auto &m) { m.label = "renamed"; }));
    EXPECT_EQ(fp, mutated([](auto &m) { m.cfg.livelockCycles = 777; }));
    EXPECT_EQ(fp, mutated([](auto &m) { m.cfg.invariantCheckCycles = 3; }));
    // ...everything semantic does.
    EXPECT_NE(fp, mutated([](auto &m) { m.cfg.seed += 1; }));
    EXPECT_NE(fp, mutated([](auto &m) { m.budget += 1; }));
    EXPECT_NE(fp, mutated([](auto &m) { m.cfg.iqSize -= 1; }));
    EXPECT_NE(fp, mutated([](auto &m) { m.cfg.iqPartitioned = true; }));
    EXPECT_NE(fp, mutated([](auto &m) { m.cfg.mem.memLatency += 1; }));
    EXPECT_NE(fp, mutated([](auto &m) {
        m.cfg.fetchPolicy = FetchPolicyKind::Flush;
    }));
    EXPECT_NE(fp, mutated([](auto &m) { m.mix = findMix("2ctx-mem-B"); }));
    EXPECT_NE(fp, mutated([](auto &m) { m.cfg.avf.deadCodeAnalysis = false; }));

    // An explicit budget equal to the default resolves identically.
    Experiment d = e;
    d.budget = 0;
    Experiment x = e;
    x.budget = defaultBudget(e.mix.contexts);
    EXPECT_EQ(experimentFingerprint(d), experimentFingerprint(x));
}

TEST(Journal, SerializedRunParsesBackBitIdentical)
{
    auto exps = fourMixCampaign();
    auto fp = experimentFingerprint(exps[0]);
    SimResult r = runExperiment(exps[0]);

    auto line = serializeRun(fp, r);
    std::uint64_t fp2 = 0;
    SimResult back;
    ASSERT_TRUE(parseRun(line, fp2, back));
    EXPECT_EQ(fp, fp2);
    expectIdentical(r, back);
}

TEST(Journal, LoaderSkipsTornAndForeignLines)
{
    auto path = ::testing::TempDir() + "torn.journal";
    std::remove(path.c_str());
    auto exps = fourMixCampaign();
    SimResult r = runExperiment(exps[0]);
    {
        RunJournal j(path);
        j.append(experimentFingerprint(exps[0]), r);
        j.append(experimentFingerprint(exps[1]), r);
    }
    {
        // A crash mid-write leaves a torn line; hand edits leave junk.
        std::ofstream out(path, std::ios::app);
        out << "run v1 fp=dead mix=torn poli";
        out << "\nnot a journal line at all\n";
    }
    std::size_t skipped = 0;
    auto loaded = loadJournal(path, &skipped);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(skipped, 2u);
    ASSERT_TRUE(loaded.count(experimentFingerprint(exps[0])));
    expectIdentical(loaded[experimentFingerprint(exps[0])], r);
}

TEST(Journal, MissingFileIsAnEmptyJournal)
{
    auto loaded =
        loadJournal(::testing::TempDir() + "does-not-exist.journal");
    EXPECT_TRUE(loaded.empty());
}

TEST(Journal, FailedRunsAreNeverJournaled)
{
    auto path = ::testing::TempDir() + "failures.journal";
    std::remove(path.c_str());
    auto exps = fourMixCampaign();
    CampaignOptions opt;
    opt.journalPath = path;
    opt.retries = 0;
    opt.runFn = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 2)
            throw std::runtime_error("broken run");
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.count(RunStatus::Ok), 3u);

    auto loaded = loadJournal(path);
    EXPECT_EQ(loaded.size(), 3u);
    EXPECT_FALSE(loaded.count(experimentFingerprint(exps[2])));
}

/**
 * The acceptance property: interrupt a campaign partway, resume it from
 * the journal, and the combined results are bit-identical to the
 * uninterrupted campaign — for serial and parallel pools alike.
 */
void
resumeDifferential(unsigned jobs)
{
    auto exps = fourMixCampaign();
    CampaignRunner pool(jobs);

    // The uninterrupted reference.
    auto reference = runTolerant(pool, exps, {});
    ASSERT_TRUE(reference.allOk());

    // A journaled full campaign...
    auto full_path = ::testing::TempDir() + "full-" +
                     std::to_string(jobs) + ".journal";
    std::remove(full_path.c_str());
    CampaignOptions jopt;
    jopt.journalPath = full_path;
    ASSERT_TRUE(runTolerant(pool, exps, jopt).allOk());

    // ...chopped after two completed records, as a SIGINT would leave it.
    auto lines = readLines(full_path);
    ASSERT_EQ(lines.size(), 5u); // header + 4 records
    lines.resize(3);
    auto part_path = ::testing::TempDir() + "partial-" +
                     std::to_string(jobs) + ".journal";
    writeLines(part_path, lines);

    // Resume must replay the two journaled runs and re-run the rest.
    CampaignOptions ropt;
    ropt.journalPath = part_path;
    ropt.resume = true;
    auto resumed = runTolerant(pool, exps, ropt);
    ASSERT_TRUE(resumed.allOk());
    std::size_t replayed = 0;
    for (const auto &o : resumed.outcomes)
        replayed += o.fromJournal ? 1 : 0;
    EXPECT_EQ(replayed, 2u);

    for (std::size_t i = 0; i < exps.size(); ++i)
        expectIdentical(resumed.outcomes[i].result,
                        reference.outcomes[i].result);

    // The resumed journal is now complete and loadable.
    EXPECT_EQ(loadJournal(part_path).size(), 4u);
}

TEST(Journal, ResumeIsBitIdenticalSerial) { resumeDifferential(1); }

TEST(Journal, ResumeIsBitIdenticalParallel) { resumeDifferential(4); }

TEST(Journal, ResumeAfterInjectedMidFlightFailures)
{
    // The campaign "dies" mid-flight: runs 2 and 3 fail on every attempt.
    // The journal keeps runs 0 and 1; the resumed campaign replays them
    // and re-runs the casualties, matching an uninterrupted serial loop
    // bit for bit.
    auto exps = fourMixCampaign();
    auto path = ::testing::TempDir() + "midflight.journal";
    std::remove(path.c_str());

    CampaignOptions first;
    first.journalPath = path;
    first.retries = 0;
    first.runFn = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i >= 2)
            throw std::runtime_error("worker killed");
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto crashed = runTolerant(pool, exps, first);
    EXPECT_EQ(crashed.count(RunStatus::Ok), 2u);

    CampaignOptions second;
    second.journalPath = path;
    second.resume = true;
    auto resumed = runTolerant(pool, exps, second);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    EXPECT_TRUE(resumed.outcomes[1].fromJournal);
    EXPECT_FALSE(resumed.outcomes[2].fromJournal);
    EXPECT_FALSE(resumed.outcomes[3].fromJournal);

    for (std::size_t i = 0; i < exps.size(); ++i)
        expectIdentical(resumed.outcomes[i].result, runExperiment(exps[i]));
}

TEST(Tolerant, MatchesPlainSerialExecution)
{
    // The tolerant machinery must not perturb healthy runs: outcomes
    // equal a plain runExperiment() loop bit for bit.
    auto exps = fourMixCampaign();
    CampaignRunner pool(2);
    auto report = runTolerant(pool, exps, {});
    ASSERT_TRUE(report.allOk());
    for (std::size_t i = 0; i < exps.size(); ++i)
        expectIdentical(report.outcomes[i].result, runExperiment(exps[i]));
}

// --- invariant checker ----------------------------------------------------

TEST(Invariants, CleanRunPassesEveryCycleChecks)
{
    auto exps = fourMixCampaign();
    Experiment e = exps[1];
    e.cfg.invariantCheckCycles = 1; // hottest possible cadence
    Simulator sim(e.cfg, e.mix);
    auto r = sim.run(2000);
    EXPECT_GE(r.totalCommitted, 2000u);
}

TEST(Invariants, DetectsSeededFreeListCorruption)
{
    auto exps = fourMixCampaign();
    Simulator sim(exps[0].cfg, exps[0].mix);
    auto &core = sim.core();
    for (int i = 0; i < 200; ++i)
        core.tick();
    ASSERT_NO_THROW(checkInvariants(core, sim.ledger(), core.now()));

    // Duplicate one free-list entry: a register now exists "twice", the
    // exact shape of a double-free bug.
    auto &rf = core.regfileRef();
    ASSERT_GE(rf.freeList(false).size(), 2u);
    rf.debugCorruptFreeList(false, 0, rf.freeList(false)[1]);
    try {
        checkInvariants(core, sim.ledger(), core.now());
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &err) {
        EXPECT_EQ(err.invariant, "regfile.freelist");
        EXPECT_NE(std::string(err.what()).find("twice"), std::string::npos);
        EXPECT_FALSE(err.stateDump.empty());
    }
}

TEST(Invariants, DetectsOutOfBankCorruption)
{
    auto exps = fourMixCampaign();
    Simulator sim(exps[0].cfg, exps[0].mix);
    auto &core = sim.core();
    for (int i = 0; i < 200; ++i)
        core.tick();

    // Point an int free-list slot into the fp bank.
    auto &rf = core.regfileRef();
    rf.debugCorruptFreeList(false, 0,
                            static_cast<RegIndex>(rf.numInt()));
    EXPECT_THROW(checkInvariants(core, sim.ledger(), core.now()),
                 InvariantError);
}

TEST(Invariants, SimulatorPeriodicCheckCatchesCorruptionMidRun)
{
    // Corrupt the machine, then let Simulator::run()'s periodic check
    // (rather than a direct call) discover it: the campaign-facing path.
    auto exps = fourMixCampaign();
    Experiment e = exps[0];
    e.cfg.invariantCheckCycles = 16;
    Simulator sim(e.cfg, e.mix);
    auto &rf = sim.core().regfileRef();
    rf.debugCorruptFreeList(false, 0, rf.freeList(false)[1]);
    EXPECT_THROW(sim.run(kBudget), InvariantError);
}

} // namespace
} // namespace smtavf
