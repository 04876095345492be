/**
 * @file
 * Process-isolation and crash-safe-journal suite (the `chaos` CTest
 * label; see docs/ROBUSTNESS.md).
 *
 * The chaos tests use CampaignOptions::runFn as the injection seam: in
 * --isolate=process campaigns runFn executes inside the forked child, so
 * a runFn that segfaults, aborts, spins past its CPU rlimit or leaks
 * until the RSS cap exercises the *real* fork/rlimit/kill/reap/classify
 * path, not a mock. Each directed test pins the exact RunOutcome a death
 * must produce, and the differential tests prove process-mode campaigns
 * bit-identical to thread-mode ones.
 *
 * This binary intentionally carries no `tsan` label: the tests fork from
 * a threaded pool and kill children with real signals, which the
 * ThreadSanitizer runtime cannot follow. The journal CRC/fsck tests ride
 * along here because the committed corruption fixtures pair with the
 * chaos-injection story.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "sim/campaign.hh"
#include "sim/errors.hh"
#include "sim/experiment.hh"
#include "sim/isolate.hh"
#include "sim/journal.hh"
#include "workload/mixes.hh"

#if defined(__SANITIZE_ADDRESS__)
#define SMTAVF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMTAVF_ASAN 1
#endif
#endif

namespace smtavf
{
namespace
{

constexpr std::uint64_t kBudget = 3000;

std::string
dataPath(const char *name)
{
    return std::string(SMTAVF_TEST_DATA_DIR "/") + name;
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
        e.cfg.seed = 21 + i;
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

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** The run records of a journal, in file order (comments dropped). */
std::vector<std::string>
runRecords(const std::string &path)
{
    std::vector<std::string> recs;
    for (auto &l : readLines(path))
        if (l.rfind("run ", 0) == 0)
            recs.push_back(std::move(l));
    return recs;
}

CampaignOptions
processOpt()
{
    CampaignOptions opt;
    opt.isolate = IsolateMode::Process;
    return opt;
}

/**
 * Die by a real signal inside the forked child. The default disposition
 * is restored first so sanitizer/gtest handlers cannot turn the death
 * into a report + clean exit — the supervisor must see the raw signal.
 */
[[noreturn]] void
dieBySignal(int sig)
{
    std::signal(sig, SIG_DFL);
    ::raise(sig);
    ::_exit(99); // not reached
}

// Linux wait-status encodings, for directed classifier tests.
int
makeExited(int code)
{
    return (code & 0xff) << 8;
}

int
makeSignaled(int sig)
{
    return sig & 0x7f;
}

// --- CRC32C and the v3 wire format --------------------------------------

TEST(Crc32c, StandardCheckValue)
{
    EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
    EXPECT_EQ(crc32c(""), 0x00000000u);
    EXPECT_NE(crc32c("a"), crc32c("b"));
}

TEST(JournalV3, RoundTripsAndCrcRejectsBitFlips)
{
    SimResult r = runExperiment(fourMixCampaign()[0]);
    std::string line = serializeRun(0x1234, r);
    EXPECT_EQ(line.rfind("run v3 crc=", 0), 0u);

    std::uint64_t fp = 0;
    SimResult back;
    ASSERT_TRUE(parseRun(line, fp, back));
    EXPECT_EQ(fp, 0x1234u);
    expectIdentical(back, r);

    // A single flipped payload character still parses structurally but
    // must fail the CRC.
    std::string flipped = line;
    auto at = flipped.find("cycles=");
    ASSERT_NE(at, std::string::npos);
    flipped[at + 7] = flipped[at + 7] == '1' ? '2' : '1';
    EXPECT_FALSE(parseRun(flipped, fp, back));

    // A corrupted CRC field rejects too.
    std::string badcrc = line;
    at = badcrc.find("crc=");
    badcrc[at + 4] = badcrc[at + 4] == '0' ? '1' : '0';
    EXPECT_FALSE(parseRun(badcrc, fp, back));
}

TEST(JournalV3, LegacyV2FixtureStillLoads)
{
    // Committed pre-CRC journal (the format every journal on disk had
    // before v3): must keep loading without a single skipped record.
    std::size_t skipped = 0;
    auto map = loadJournal(dataPath("journal_v2_legacy.journal"), &skipped);
    EXPECT_EQ(map.size(), 51u);
    EXPECT_EQ(skipped, 0u);

    JournalFsck fsck = fsckJournal(dataPath("journal_v2_legacy.journal"));
    EXPECT_TRUE(fsck.clean());
    EXPECT_EQ(fsck.records, 51u);
    EXPECT_EQ(fsck.comments, 53u);
}

// --- fsck ---------------------------------------------------------------

TEST(JournalFsck, CleanFixturePasses)
{
    JournalFsck fsck = fsckJournal(dataPath("journal_v3_clean.journal"));
    EXPECT_TRUE(fsck.clean());
    EXPECT_EQ(fsck.records, 2u);
    EXPECT_EQ(fsck.comments, 1u);

    std::size_t skipped = 0;
    auto map = loadJournal(dataPath("journal_v3_clean.journal"), &skipped);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(skipped, 0u);
}

TEST(JournalFsck, DetectsBitFlippedRecordInCommittedFixture)
{
    JournalFsck fsck = fsckJournal(dataPath("journal_v3_bitflip.journal"));
    EXPECT_FALSE(fsck.clean());
    ASSERT_EQ(fsck.issues.size(), 1u);
    EXPECT_EQ(fsck.issues[0].line, 2u);
    EXPECT_NE(fsck.issues[0].reason.find("bad CRC"), std::string::npos);
    EXPECT_GT(fsck.issues[0].offset, 0u);
    EXPECT_EQ(fsck.records, 1u); // the undamaged record still counts

    // The loader skips exactly the damaged record.
    std::size_t skipped = 0;
    auto map = loadJournal(dataPath("journal_v3_bitflip.journal"), &skipped);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(skipped, 1u);
}

TEST(JournalFsck, DetectsTornTailInCommittedFixtureAndRepairs)
{
    JournalFsck fsck = fsckJournal(dataPath("journal_v3_torn.journal"));
    EXPECT_FALSE(fsck.clean());
    ASSERT_EQ(fsck.issues.size(), 1u);
    EXPECT_NE(fsck.issues[0].reason.find("torn record"), std::string::npos);
    EXPECT_TRUE(fsck.tailOnly);
    EXPECT_EQ(fsck.issues[0].offset, fsck.truncateOffset);

    // Repair a copy in place: afterwards the journal is clean and keeps
    // exactly the records before the tear.
    const std::string copy = "isolate_torn_repair.journal";
    writeLines(copy, readLines(dataPath("journal_v3_torn.journal")));
    {
        // readLines/writeLines normalize the missing trailing newline;
        // rewrite the torn bytes exactly.
        std::ifstream in(dataPath("journal_v3_torn.journal"),
                         std::ios::binary);
        std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        std::ofstream out(copy, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    JournalFsck before = fsckJournal(copy);
    ASSERT_TRUE(before.tailOnly);
    ASSERT_TRUE(repairJournalTail(copy, before));
    JournalFsck after = fsckJournal(copy);
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.records, before.records);
    std::size_t skipped = 0;
    EXPECT_EQ(loadJournal(copy, &skipped).size(), before.records);
    EXPECT_EQ(skipped, 0u);
    std::remove(copy.c_str());
}

TEST(JournalFsck, MidFileCorruptionIsNotTailRepairable)
{
    auto lines = readLines(dataPath("journal_v3_clean.journal"));
    ASSERT_EQ(lines.size(), 3u); // header comment + 2 records
    auto at = lines[1].find("ipc=");
    ASSERT_NE(at, std::string::npos);
    lines[1][at + 6] ^= 0x4; // flip a bit in the FIRST record
    const std::string path = "isolate_midfile.journal";
    writeLines(path, lines);

    JournalFsck fsck = fsckJournal(path);
    ASSERT_EQ(fsck.issues.size(), 1u);
    EXPECT_EQ(fsck.issues[0].line, 2u);
    EXPECT_FALSE(fsck.tailOnly); // a valid record follows the damage
    EXPECT_FALSE(repairJournalTail(path, fsck));
    EXPECT_EQ(fsckJournal(path).records, 1u); // file untouched
    std::remove(path.c_str());
}

// --- merge-journals CRC verification ------------------------------------

TEST(MergeJournals, RefusesCorruptInputAndReportsOffsets)
{
    const std::string out = "isolate_merge_refused.journal";
    std::remove(out.c_str());
    std::vector<std::string> corruption;
    std::size_t n = mergeJournals({dataPath("journal_v3_clean.journal"),
                                   dataPath("journal_v3_bitflip.journal")},
                                  out, &corruption);
    EXPECT_EQ(n, 0u);
    ASSERT_EQ(corruption.size(), 1u);
    EXPECT_NE(corruption[0].find("journal_v3_bitflip.journal"),
              std::string::npos);
    EXPECT_NE(corruption[0].find("line 2"), std::string::npos);
    EXPECT_NE(corruption[0].find("@ byte"), std::string::npos);
    EXPECT_FALSE(fileExists(out)); // nothing written on refusal
}

TEST(MergeJournals, CleanInputsMergeAcrossFormatVersions)
{
    const std::string out = "isolate_merge_ok.journal";
    std::vector<std::string> corruption;
    std::size_t n = mergeJournals({dataPath("journal_v3_clean.journal"),
                                   dataPath("journal_v2_legacy.journal")},
                                  out, &corruption);
    EXPECT_TRUE(corruption.empty());
    EXPECT_GE(n, 51u); // dedup may fold overlapping fingerprints
    std::size_t skipped = 0;
    EXPECT_EQ(loadJournal(out, &skipped).size(), n);
    EXPECT_EQ(skipped, 0u);
    std::remove(out.c_str());
}

// --- deterministic retry backoff ----------------------------------------

TEST(Backoff, DeterministicExponentialWithSeedJitter)
{
    EXPECT_EQ(retryBackoffSeconds(0, 42, 1.0), 0.0);
    EXPECT_EQ(retryBackoffSeconds(3, 42, 0.0), 0.0);

    for (unsigned k = 1; k <= 6; ++k) {
        double lo = 0.5 * static_cast<double>(1u << (k - 1));
        double v = retryBackoffSeconds(k, 42, 0.5);
        EXPECT_GE(v, lo) << k;
        EXPECT_LT(v, 2.0 * lo) << k;
        // Replay-deterministic: the same (attempt, seed, base) always
        // backs off identically.
        EXPECT_EQ(v, retryBackoffSeconds(k, 42, 0.5)) << k;
    }
    // Different runs decorrelate.
    EXPECT_NE(retryBackoffSeconds(1, 42, 0.5),
              retryBackoffSeconds(1, 43, 0.5));
}

// --- mode parsing and the crash taxonomy --------------------------------

TEST(IsolateMode, ParseAndName)
{
    IsolateMode m = IsolateMode::Thread;
    EXPECT_TRUE(parseIsolateMode("process", m));
    EXPECT_EQ(m, IsolateMode::Process);
    EXPECT_TRUE(parseIsolateMode("THREAD", m));
    EXPECT_EQ(m, IsolateMode::Thread);
    EXPECT_FALSE(parseIsolateMode("container", m));
    EXPECT_STREQ(isolateModeName(IsolateMode::Process), "process");
    EXPECT_STREQ(isolateModeName(IsolateMode::Thread), "thread");
}

TEST(CrashTaxonomy, ClassifiesWaitStatuses)
{
    EXPECT_EQ(classifyWaitStatus(makeExited(7), false), CrashKind::ExitCode);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGSEGV), false),
              CrashKind::Segv);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGABRT), false),
              CrashKind::Abort);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGBUS), false),
              CrashKind::Bus);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGXCPU), false),
              CrashKind::CpuLimit);
    // The supervisor's own SIGKILL is a hard timeout; anyone else's is
    // the OOM killer's.
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGKILL), true),
              CrashKind::HardTimeout);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGKILL), false),
              CrashKind::Oom);
    EXPECT_EQ(classifyWaitStatus(makeSignaled(SIGTERM), false),
              CrashKind::Signal);

    EXPECT_STREQ(crashKindName(CrashKind::Segv), "segv");
    EXPECT_STREQ(crashKindName(CrashKind::HardTimeout), "hard-timeout");
    EXPECT_NE(describeChildDeath(makeSignaled(SIGSEGV), false)
                  .find("SIGSEGV"),
              std::string::npos);
}

// --- runInChild ---------------------------------------------------------

TEST(RunInChild, HealthyRunIsBitIdenticalToInProcess)
{
    Experiment e = fourMixCampaign()[0];
    ChildOutcome co = runInChild([&] { return runExperiment(e); }, {});
    ASSERT_EQ(co.kind, ChildOutcome::Kind::Result);
    EXPECT_EQ(co.crash, CrashKind::None);
    expectIdentical(co.result, runExperiment(e));
}

TEST(RunInChild, ExceptionsCrossAsErrorMessages)
{
    ChildOutcome co = runInChild(
        []() -> SimResult { throw std::runtime_error("boom in child"); },
        {});
    ASSERT_EQ(co.kind, ChildOutcome::Kind::Error);
    EXPECT_EQ(co.message, "boom in child");
}

TEST(RunInChild, LivelockCrossesAsLivelock)
{
    Experiment e = fourMixCampaign()[0];
    e.cfg.prewarmCaches = false; // cold caches: nothing commits in 50cy
    e.cfg.livelockCycles = 50;
    ChildOutcome co = runInChild([&] { return runExperiment(e); }, {});
    ASSERT_EQ(co.kind, ChildOutcome::Kind::Livelock);
    EXPECT_NE(co.message.find("livelock"), std::string::npos);
}

// --- directed chaos: every injected death, classified and pinned --------

TEST(Chaos, SegfaultingChildIsClassifiedRetriedAndQuarantined)
{
    auto exps = fourMixCampaign();
    CampaignOptions opt = processOpt();
    opt.retries = 3;
    opt.runFn = [](const Experiment &e, std::size_t i) {
        if (i == 2)
            dieBySignal(SIGSEGV);
        return runExperiment(e);
    };
    CampaignRunner pool(2);
    auto report = runTolerant(pool, exps, opt);

    const RunOutcome &o = report.outcomes[2];
    EXPECT_EQ(o.status, RunStatus::Quarantined); // same death twice
    EXPECT_EQ(o.attempts, 2u);
    EXPECT_EQ(o.crash, CrashKind::Segv);
    EXPECT_NE(o.error.find("SIGSEGV"), std::string::npos);

    // The crash was contained: every other run completed, bit-identical
    // to an in-process execution.
    for (std::size_t i : {0u, 1u, 3u}) {
        ASSERT_EQ(report.outcomes[i].status, RunStatus::Ok) << i;
        expectIdentical(report.outcomes[i].result, runExperiment(exps[i]));
    }

    // CSV pins the status column and stays parseable.
    std::string csv = campaignCsv(exps, report);
    EXPECT_NE(csv.find(exps[2].label + "," +
                       std::to_string(exps[2].cfg.seed) + ",quarantined,2"),
              std::string::npos);
    EXPECT_NE(report.failureReport().find("[segv]"), std::string::npos);
}

TEST(Chaos, AbortingChildIsClassified)
{
    auto exps = fourMixCampaign();
    exps.resize(2);
    CampaignOptions opt = processOpt();
    opt.runFn = [](const Experiment &e, std::size_t i) {
        if (i == 1)
            dieBySignal(SIGABRT);
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[1].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[1].crash, CrashKind::Abort);
    EXPECT_NE(report.outcomes[1].error.find("SIGABRT"), std::string::npos);
}

TEST(Chaos, NonzeroExitCodeIsClassified)
{
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        ::_exit(7); // bypasses the child protocol entirely
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::ExitCode);
    EXPECT_NE(report.outcomes[0].error.find("exited with code 7"),
              std::string::npos);
}

TEST(Chaos, CpuRlimitSpinIsTimedOutWithoutRetry)
{
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.retries = 5;
    opt.childCpuSeconds = 1;
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        volatile std::uint64_t sink = 0;
        for (;;) // never polls anything; only the rlimit can stop this
            sink = sink + 1;
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(report.outcomes[0].attempts, 1u); // burning CPU twice is futile
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::CpuLimit);
    EXPECT_NE(report.outcomes[0].error.find("SIGXCPU"), std::string::npos);
}

TEST(Chaos, HardTimeoutKillsAWedgedChild)
{
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.retries = 5;
    opt.hardTimeoutSeconds = 0.25;
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        // Sleeps, so no CPU-based limit could ever fire: only the
        // supervisor's kill-based wall-clock timeout works here.
        std::this_thread::sleep_for(std::chrono::seconds(300));
        return {};
    };
    CampaignRunner pool(1);
    auto t0 = std::chrono::steady_clock::now();
    auto report = runTolerant(pool, exps, opt);
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(dt.count(), 30.0); // killed, not waited out
    EXPECT_EQ(report.outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::HardTimeout);
    EXPECT_NE(report.outcomes[0].error.find("hard timeout"),
              std::string::npos);
}

TEST(Chaos, HardTimeoutBeyondTheClockIsNoDeadline)
{
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.retries = 0;
    // Past steady_clock's range: the supervisor must not convert it into
    // a deadline that has already expired.
    opt.hardTimeoutSeconds = 1e300;
    opt.runFn = [](const Experiment &e, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok)
        << report.outcomes[0].error;
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::None);
}

TEST(Chaos, LeakUntilMemoryCapIsClassifiedOom)
{
#ifdef SMTAVF_ASAN
    GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.childMemoryBytes = 512ull * 1024 * 1024;
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        std::vector<std::unique_ptr<char[]>> hoard;
        for (;;) { // leak until the address-space cap stops us
            hoard.push_back(std::make_unique<char[]>(8 << 20));
            for (std::size_t i = 0; i < (8u << 20); i += 4096)
                hoard.back()[i] = 1; // touch, so pages really materialize
        }
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::Oom);
    EXPECT_NE(report.outcomes[0].error.find("memory cap"),
              std::string::npos);
#endif
}

TEST(Chaos, UnsolicitedSigkillIsClassifiedOom)
{
    // The kernel OOM killer's signature, simulated from inside: a
    // SIGKILL the supervisor did not send.
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        ::raise(SIGKILL);
        ::_exit(99); // not reached
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Quarantined);
    EXPECT_EQ(report.outcomes[0].crash, CrashKind::Oom);
    EXPECT_NE(report.outcomes[0].error.find("unsolicited SIGKILL"),
              std::string::npos);
}

TEST(Chaos, TransientCrashRecoversViaRetry)
{
    const std::string marker = "isolate_transient.marker";
    std::remove(marker.c_str());

    auto exps = fourMixCampaign();
    exps.resize(2);
    CampaignOptions opt = processOpt();
    opt.retries = 2;
    // Cross-process transient-failure state: the child leaves a marker
    // before dying, so only its first incarnation crashes.
    opt.runFn = [&](const Experiment &e, std::size_t i) {
        if (i == 1 && !fileExists(marker)) {
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
    EXPECT_EQ(report.outcomes[1].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[1].attempts, 2u);
    EXPECT_EQ(report.outcomes[1].crash, CrashKind::None); // last attempt clean
    expectIdentical(report.outcomes[1].result, runExperiment(exps[1]));
    std::remove(marker.c_str());
}

TEST(Chaos, BackoffDelaysTheRetry)
{
    const std::string marker = "isolate_backoff.marker";
    std::remove(marker.c_str());
    auto exps = fourMixCampaign();
    exps.resize(1);
    CampaignOptions opt = processOpt();
    opt.retries = 1;
    opt.backoffSeconds = 0.3;
    opt.runFn = [&](const Experiment &e, std::size_t) {
        if (!fileExists(marker)) {
            {
                std::ofstream m(marker);
                m << "x";
            }
            dieBySignal(SIGSEGV);
        }
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto t0 = std::chrono::steady_clock::now();
    auto report = runTolerant(pool, exps, opt);
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(report.outcomes[0].status, RunStatus::Ok);
    EXPECT_EQ(report.outcomes[0].attempts, 2u);
    // attempt 2 waited at least the base backoff (jitter only adds).
    EXPECT_GE(dt.count(), 0.3);
    std::remove(marker.c_str());
}

// --- the differential guarantees ----------------------------------------

TEST(ProcessDifferential, FatalInChildKeepsItsMessage)
{
    // SMTAVF_FATAL throws SimError, which is no std::exception: a forked
    // child must report its text exactly as thread mode does, one run
    // per child or batched.
    auto exps = fourMixCampaign();
    auto fatal_run = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 1)
            SMTAVF_FATAL("bad config seen by run");
        return runExperiment(e);
    };
    CampaignOptions topt;
    topt.runFn = fatal_run;
    CampaignRunner pool(1);
    auto treport = runTolerant(pool, exps, topt);
    ASSERT_EQ(treport.outcomes[1].status, RunStatus::Quarantined);
    ASSERT_NE(treport.outcomes[1].error.find("bad config seen by run"),
              std::string::npos);
    const std::string thread_csv = campaignCsv(exps, treport);

    for (unsigned per_child : {1u, 4u}) {
        SCOPED_TRACE(per_child);
        CampaignOptions popt = processOpt();
        popt.runsPerChild = per_child;
        popt.runFn = fatal_run;
        auto preport = runTolerant(pool, exps, popt);
        EXPECT_EQ(preport.outcomes[1].error, treport.outcomes[1].error);
        EXPECT_EQ(preport.outcomes[1].attempts, 2u);
        EXPECT_EQ(campaignCsv(exps, preport), thread_csv);
    }
}

TEST(ProcessDifferential, OneWorkerJournalIsByteIdenticalToThreadMode)
{
    const std::string tj = "isolate_diff_thread.journal";
    const std::string pj = "isolate_diff_process.journal";
    std::remove(tj.c_str());
    std::remove(pj.c_str());

    auto exps = fourMixCampaign();
    CampaignOptions topt;
    topt.journalPath = tj;
    CampaignOptions popt = processOpt();
    popt.journalPath = pj;

    CampaignRunner pool(1);
    auto treport = runTolerant(pool, exps, topt);
    auto preport = runTolerant(pool, exps, popt);
    ASSERT_TRUE(treport.allOk());
    ASSERT_TRUE(preport.allOk());

    for (std::size_t i = 0; i < exps.size(); ++i)
        expectIdentical(preport.outcomes[i].result,
                        treport.outcomes[i].result);
    // With one worker even the append order matches: the files must be
    // byte-for-byte identical.
    EXPECT_EQ(readLines(pj), readLines(tj));
    EXPECT_EQ(campaignCsv(exps, preport), campaignCsv(exps, treport));

    std::remove(tj.c_str());
    std::remove(pj.c_str());
}

TEST(ProcessDifferential, FourWorkerRecordsMatchThreadModeAsSets)
{
    const std::string tj = "isolate_diff4_thread.journal";
    const std::string pj = "isolate_diff4_process.journal";
    std::remove(tj.c_str());
    std::remove(pj.c_str());

    auto exps = fourMixCampaign();
    CampaignOptions topt;
    topt.journalPath = tj;
    CampaignOptions popt = processOpt();
    popt.journalPath = pj;

    CampaignRunner pool(4);
    auto treport = runTolerant(pool, exps, topt);
    auto preport = runTolerant(pool, exps, popt);
    ASSERT_TRUE(treport.allOk());
    ASSERT_TRUE(preport.allOk());

    for (std::size_t i = 0; i < exps.size(); ++i)
        expectIdentical(preport.outcomes[i].result,
                        treport.outcomes[i].result);
    // Append order is scheduling-dependent at 4 workers; the record
    // *sets* must still match exactly.
    auto trecs = runRecords(tj);
    auto precs = runRecords(pj);
    std::sort(trecs.begin(), trecs.end());
    std::sort(precs.begin(), precs.end());
    EXPECT_EQ(precs, trecs);
    EXPECT_EQ(campaignCsv(exps, preport), campaignCsv(exps, treport));

    std::remove(tj.c_str());
    std::remove(pj.c_str());
}

TEST(ProcessDifferential, ThreadModeResumesFromProcessJournal)
{
    const std::string pj = "isolate_resume.journal";
    std::remove(pj.c_str());

    auto exps = fourMixCampaign();
    CampaignOptions popt = processOpt();
    popt.journalPath = pj;
    CampaignRunner pool(2);
    auto preport = runTolerant(pool, exps, popt);
    ASSERT_TRUE(preport.allOk());

    CampaignOptions ropt;
    ropt.journalPath = pj;
    ropt.resume = true;
    ropt.runFn = [](const Experiment &, std::size_t) -> SimResult {
        SMTAVF_FATAL("resume must not re-simulate journaled runs");
    };
    auto rreport = runTolerant(pool, exps, ropt);
    ASSERT_TRUE(rreport.allOk());
    for (std::size_t i = 0; i < exps.size(); ++i) {
        EXPECT_TRUE(rreport.outcomes[i].fromJournal) << i;
        expectIdentical(rreport.outcomes[i].result,
                        preport.outcomes[i].result);
    }
    std::remove(pj.c_str());
}

// --- the in-simulator cancel poll (thread-mode satellite) ---------------

TEST(CancelPoll, SimulatorUnwindsAtTheConfiguredInterval)
{
    std::atomic<bool> flag{true};
    Experiment e = fourMixCampaign()[0];
    e.cfg.cancel = &flag;
    e.cfg.cancelCheckCycles = 64;
    e.budget = 1000000; // the poll, not the budget, must end this run
    try {
        runExperiment(e);
        FAIL() << "expected CancelledError";
    } catch (const CancelledError &err) {
        EXPECT_EQ(err.cycle, 64u); // first poll, deterministically
        EXPECT_NE(std::string(err.what()).find("cancelled mid-run"),
                  std::string::npos);
    }
}

TEST(CancelPoll, DisarmedPollPerturbsNothing)
{
    std::atomic<bool> flag{false};
    Experiment plain = fourMixCampaign()[0];
    Experiment polled = plain;
    polled.cfg.cancel = &flag;
    polled.cfg.cancelCheckCycles = 64;
    // The poll knobs must not change a single bit of the result...
    expectIdentical(runExperiment(polled), runExperiment(plain));
    // ...nor the journal key (they are fingerprint-excluded).
    EXPECT_EQ(experimentFingerprint(polled), experimentFingerprint(plain));
}

TEST(CancelPoll, CampaignClassifiesMidRunCancellationAsTimedOut)
{
    std::atomic<bool> flag{false};
    auto exps = fourMixCampaign();
    exps.resize(2);
    for (auto &e : exps)
        e.budget = 500000; // long enough that the poll ends them
    CampaignOptions opt;
    opt.cancel = &flag;
    opt.cancelCheckCycles = 64;
    opt.runFn = [&](const Experiment &e, std::size_t i) {
        // The campaign must have wired the flag into the config copy.
        EXPECT_EQ(e.cfg.cancel, &flag) << i;
        EXPECT_EQ(e.cfg.cancelCheckCycles, 64u) << i;
        if (i == 1)
            flag.store(true); // cancel while run 1 is in flight
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    EXPECT_EQ(report.outcomes[1].status, RunStatus::TimedOut);
    EXPECT_EQ(report.outcomes[1].attempts, 1u); // cancel is never retried
    EXPECT_NE(report.outcomes[1].error.find("cancelled mid-run"),
              std::string::npos);
}

TEST(CancelPoll, SupervisorKillsChildOnCancellation)
{
    // Process-mode cancellation: the child never polls anything; the
    // supervisor's SIGKILL must end it promptly anyway. The killed run
    // counts one attempt whether its child holds one run or a batch;
    // the run no child started counts none.
    const std::string marker = "isolate_cancel.marker";
    for (unsigned per_child : {1u, 4u}) {
        SCOPED_TRACE(per_child);
        std::remove(marker.c_str());
        std::atomic<bool> flag{false};
        auto exps = fourMixCampaign();
        exps.resize(2);
        CampaignOptions opt = processOpt();
        opt.runsPerChild = per_child;
        opt.cancel = &flag;
        opt.runFn = [&](const Experiment &, std::size_t) -> SimResult {
            std::ofstream(marker) << "x"; // run 0 is in flight
            std::this_thread::sleep_for(std::chrono::seconds(300));
            return {};
        };
        std::thread trigger([&] {
            auto t0 = std::chrono::steady_clock::now();
            while (!fileExists(marker) &&
                   std::chrono::steady_clock::now() - t0 <
                       std::chrono::seconds(20))
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            flag.store(true);
        });
        CampaignRunner pool(1);
        auto t0 = std::chrono::steady_clock::now();
        auto report = runTolerant(pool, exps, opt);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        trigger.join();
        EXPECT_LT(dt.count(), 30.0);

        const RunOutcome &killed = report.outcomes[0];
        EXPECT_EQ(killed.status, RunStatus::TimedOut);
        EXPECT_EQ(killed.attempts, 1u);
        EXPECT_NE(killed.error.find("killed by supervisor: campaign "
                                    "cancelled"),
                  std::string::npos)
            << killed.error;
        const RunOutcome &unstarted = report.outcomes[1];
        EXPECT_EQ(unstarted.status, RunStatus::TimedOut);
        EXPECT_EQ(unstarted.attempts, 0u);
        EXPECT_NE(unstarted.error.find("not started"), std::string::npos)
            << unstarted.error;
    }
    std::remove(marker.c_str());
}

} // namespace
} // namespace smtavf
