/**
 * @file
 * Checkpoint differential matrix (the acceptance bar of the checkpoint
 * subsystem): restore-then-run must be bit-identical — on serializeRun()
 * wire bytes, which compare every double to the last mantissa bit — to
 * the run that captured the checkpoint and continued, at 2/4/8 contexts
 * across two fetch policies, and at the drained boundary of seeds whose
 * DL1 fill order once leaked across it (both for `--warmup` against the
 * restored warmup checkpoint and for `--checkpoint-at` against its own
 * restore); and shared-warmup campaigns must reproduce
 * per-run-warmup results exactly in BOTH isolation modes, including
 * `--isolate process` where the warmup checkpoint crosses a fork via a
 * temp file. Lives in the isolate-test binary (chaos label): the process
 * legs fork children out of a threaded pool, which TSan cannot follow.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "protect/scheme.hh"
#include "sim/campaign.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

struct MatrixCase
{
    const char *mix;
    FetchPolicyKind policy;
    /** Protection assignment spec (nullptr = unprotected). */
    const char *assign = nullptr;
    /** PRAT exposure cap (0 = derived default); only read under PRat. */
    std::uint32_t pratCap = 0;
};

// 2/4/8 contexts under ICOUNT, the same spread under FLUSH: the two
// policies differ in squash behaviour, which is exactly the state a
// buggy serialize() hook would lose. The PRAT rows run *protected*:
// PRAT's measured corrections and refresh schedule are checkpoint state
// (policy/prat.hh saveState), and protection is what arms them.
const MatrixCase kMatrix[] = {
    {"2ctx-mix-A", FetchPolicyKind::Icount},
    {"4ctx-mix-A", FetchPolicyKind::Icount},
    {"8ctx-mix-A", FetchPolicyKind::Icount},
    {"2ctx-mem-A", FetchPolicyKind::Flush},
    {"4ctx-cpu-A", FetchPolicyKind::Flush},
    {"8ctx-mix-B", FetchPolicyKind::Flush},
    {"2ctx-mix-A", FetchPolicyKind::PRat, "iq=secded,rob=secded", 12},
    {"4ctx-mem-A", FetchPolicyKind::PRat, "iq=parity,rob=secded", 24},
};

constexpr std::uint64_t kBudget = 40'000;
constexpr std::uint64_t kCapture = 20'000;

/** Matrix row -> runnable Experiment (protection and caps applied). */
Experiment
matrixExperiment(const MatrixCase &c)
{
    Experiment e = makeExperiment(findMix(c.mix), c.policy, kBudget);
    e.cfg.pratCap = c.pratCap;
    if (c.assign) {
        std::string err;
        EXPECT_TRUE(parseAssignment(c.assign, e.cfg.protection, err))
            << err;
        e.label += std::string("/") + c.assign;
    }
    return e;
}

/**
 * Run @p e for e.budget instructions with a checkpoint captured at
 * @p capture, restore that checkpoint into a fresh simulator, finish the
 * budget there, and require the two records to be the same bytes.
 */
void
expectRestoreMatchesContinuedRun(const Experiment &e, std::uint64_t capture)
{
    Checkpoint ck;
    RunControls rc;
    rc.checkpointAt = capture;
    rc.checkpointCapture = &ck;
    Simulator a(e.cfg, e.mix);
    SimResult ra = a.run(e.budget, rc);
    ASSERT_FALSE(ck.empty());

    Simulator b(e.cfg, e.mix);
    b.restore(ck);
    ASSERT_LT(b.restoredCommitted(), e.budget);
    SimResult rb = b.run(e.budget - b.restoredCommitted());

    std::uint64_t fp = experimentFingerprint(e);
    EXPECT_EQ(serializeRun(fp, ra), serializeRun(fp, rb));
}

TEST(CkptDifferential, RestoreMatchesContinuedRunAcrossMatrix)
{
    for (const auto &c : kMatrix) {
        Experiment e = matrixExperiment(c);
        SCOPED_TRACE(e.label);
        expectRestoreMatchesContinuedRun(e, kCapture);
    }
}

/** A run whose DL1 fill order once leaked across a drained boundary. */
struct BoundaryCase
{
    const char *mix;
    std::uint64_t seed;
};

// The boundary drain empties the MSHR maps but used to leave them with
// the bucket arrays they had grown to, while a restored simulator starts
// with fresh maps; fills then landed in a different order, and one
// thread's DL1 data and tag AVF moved in the low bits. These ICOUNT runs
// (20000-instruction boundary, 16000-instruction window) differed that
// way before the simulator renewed the maps at the boundary.
const BoundaryCase kBoundaryCases[] = {
    {"4ctx-mix-A", 14}, {"4ctx-mix-A", 24}, {"8ctx-mem-A", 1},
    {"8ctx-mem-A", 12}, {"2ctx-mem-A", 12}, {"4ctx-mem-A", 21},
};

constexpr std::uint64_t kBoundary = 20'000;
constexpr std::uint64_t kWindow = 16'000;

TEST(CkptDifferential, WarmupBoundaryRunMatchesRestore)
{
    for (const auto &c : kBoundaryCases) {
        Experiment e =
            makeExperiment(findMix(c.mix), FetchPolicyKind::Icount, kWindow);
        e.cfg.seed = c.seed;
        e.warmup = kBoundary;
        SCOPED_TRACE(e.label + " seed " + std::to_string(c.seed));

        RunControls rc;
        rc.warmup = kBoundary;
        Simulator inline_warm(e.cfg, e.mix);
        SimResult ra = inline_warm.run(kWindow, rc);

        Simulator capture(e.cfg, e.mix);
        Checkpoint ck = capture.captureWarmupCheckpoint(kBoundary);
        Simulator restored(e.cfg, e.mix);
        restored.restore(ck);
        SimResult rb = restored.run(kWindow);

        std::uint64_t fp = experimentFingerprint(e);
        EXPECT_EQ(serializeRun(fp, ra), serializeRun(fp, rb));
    }
}

TEST(CkptDifferential, CheckpointBoundaryRunMatchesRestore)
{
    for (const auto &c : kBoundaryCases) {
        Experiment e = makeExperiment(findMix(c.mix), FetchPolicyKind::Icount,
                                      kBoundary + kWindow);
        e.cfg.seed = c.seed;
        SCOPED_TRACE(e.label + " seed " + std::to_string(c.seed));
        expectRestoreMatchesContinuedRun(e, kBoundary);
    }
}

/** The matrix as a warmup campaign: every run warms up kCapture instrs. */
std::vector<Experiment>
warmupMatrix()
{
    std::vector<Experiment> exps;
    for (const auto &c : kMatrix) {
        Experiment e = matrixExperiment(c);
        e.warmup = kCapture;
        exps.push_back(e);
    }
    return exps;
}

void
expectSharedWarmupMatchesUnshared(IsolateMode mode)
{
    std::vector<Experiment> exps = warmupMatrix();
    CampaignRunner pool(3);

    CampaignOptions plain;
    plain.isolate = mode;
    auto ref = runTolerant(pool, exps, plain);
    ASSERT_TRUE(ref.allOk()) << ref.failureReport();

    CampaignOptions shared;
    shared.isolate = mode;
    shared.sharedWarmup = true;
    auto got = runTolerant(pool, exps, shared);
    ASSERT_TRUE(got.allOk()) << got.failureReport();

    for (std::size_t i = 0; i < exps.size(); ++i) {
        std::uint64_t fp = experimentFingerprint(exps[i]);
        EXPECT_EQ(serializeRun(fp, ref.outcomes[i].result),
                  serializeRun(fp, got.outcomes[i].result))
            << exps[i].label;
    }
}

TEST(CkptDifferential, SharedWarmupThreadMode)
{
    expectSharedWarmupMatchesUnshared(IsolateMode::Thread);
}

TEST(CkptDifferential, SharedWarmupProcessMode)
{
    // Process mode writes each group's warmup checkpoint to a temp file
    // that forked children restore from — the file format itself is in
    // the differential path here.
    expectSharedWarmupMatchesUnshared(IsolateMode::Process);
}

TEST(CkptDifferential, ProcessModeCleansUpWarmupFiles)
{
    std::string dir = testing::TempDir() + "smtavf_ckpt_diff_warmups";
    std::string cmd = "mkdir -p " + dir;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    std::vector<Experiment> exps = warmupMatrix();
    CampaignRunner pool(3);
    CampaignOptions opt;
    opt.isolate = IsolateMode::Process;
    opt.sharedWarmup = true;
    opt.checkpointDir = dir;
    auto rep = runTolerant(pool, exps, opt);
    ASSERT_TRUE(rep.allOk()) << rep.failureReport();

    // The campaign must remove every warmup file it parked in the dir.
    std::string probe =
        "ls " + dir + "/smtavf-warmup-*.ckpt 2>/dev/null | grep -q .";
    EXPECT_NE(std::system(probe.c_str()), 0) << "leftover warmup files";
}

} // namespace
} // namespace smtavf
