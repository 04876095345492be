/**
 * @file
 * Differential/property harness for the protection-aware fetch throttle
 * (policy/prat.hh) against its base policy RAT. Four property classes:
 *
 *  (a) **All-none equivalence** — with nothing protected every PRAT
 *      weight is exactly 256/256, so fetch orders are bit-identical to
 *      RAT's for any seed and context count (scripted contexts), and a
 *      whole simulation serializes to the identical journal record
 *      (policy-name token masked).
 *  (b) **Full-SECDED degeneracy** — with everything under SECDED the
 *      weight floors at 1/256 and the gate threshold leaves any
 *      reachable correct-path population unthrottled: PRAT degenerates
 *      to the base sort order and its throttle duty cycle stays zero.
 *  (c) **Coverage monotonicity** — replaying one identical context
 *      script under progressively stronger protection never increases
 *      the throttle duty cycle (weights only shrink as coverage grows).
 *  (d) **Execution-shape invariance** — a PRAT campaign's serialized
 *      journal records are byte-identical across worker counts and
 *      across thread- vs. process-isolated execution.
 *
 * Plus the committed golden fixture tests/data/prat_golden.journal: a
 * fixed two-experiment PRAT campaign journaled through the production
 * `run v3` writer must reproduce it byte for byte (regenerate with
 * SMTAVF_REGEN_GOLDEN=1), pinning the PRAT experiment fingerprint
 * fields and the wire format at once.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avf/ledger.hh"
#include "base/rng.hh"
#include "ckpt/serializer.hh"
#include "policy/prat.hh"
#include "policy/rat.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace smtavf
{
namespace
{

/**
 * Scripted core-state stub with the protection-facing surface PRAT
 * reads: per-structure occupancy, a protection assignment and
 * (optionally) an AVF ledger for the epoch-refreshed correction.
 */
class FakeContext : public PolicyContext
{
  public:
    explicit FakeContext(unsigned n) : n_(n) {}

    unsigned numThreads() const override { return n_; }
    unsigned inFlightCount(ThreadId t) const override { return icount[t]; }
    unsigned
    inFlightCorrectPath(ThreadId t) const override
    {
        return icount[t] > wrongPath[t] ? icount[t] - wrongPath[t] : 0;
    }
    unsigned outstandingL1D(ThreadId) const override { return 0; }
    unsigned outstandingL2D(ThreadId) const override { return 0; }
    void flushAfter(ThreadId, SeqNum) override {}

    unsigned
    structOccupancy(HwStruct s, ThreadId t) const override
    {
        return occ[static_cast<std::size_t>(s)][t];
    }
    const ProtectionConfig *protectionConfig() const override
    {
        return &protection;
    }
    const AvfLedger *avfLedger() const override { return ledger; }

    std::array<unsigned, maxContexts> icount{};
    std::array<unsigned, maxContexts> wrongPath{};
    std::array<std::array<unsigned, maxContexts>, numHwStructs> occ{};
    ProtectionConfig protection;
    const AvfLedger *ledger = nullptr;

  private:
    unsigned n_;
};

/** Randomize the scripted state for one cycle. */
void
randomizeCycle(FakeContext &ctx, unsigned n, Rng &rng)
{
    for (unsigned t = 0; t < n; ++t) {
        ctx.icount[t] = static_cast<unsigned>(rng.uniform(120));
        ctx.wrongPath[t] =
            static_cast<unsigned>(rng.uniform(ctx.icount[t] + 1));
        for (std::size_t s = 0; s < numHwStructs; ++s)
            ctx.occ[s][t] = static_cast<unsigned>(rng.uniform(97));
    }
}

// ---------------------------------------------------------------------------
// (a) All-none: PRAT's fetch orders are bit-identical to RAT's for any
// seed and context count — occupancies and epoch refreshes included.
TEST(PolicyProperties, AllNoneFetchOrdersBitIdenticalToRat)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 8u}) {
        for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
            SCOPED_TRACE("contexts=" + std::to_string(n) +
                         " seed=" + std::to_string(seed));
            FakeContext ctx(n); // protection defaults to all-none
            RatPolicy rat(ctx);
            PRatPolicy prat(ctx, /*ace_cap=*/0, /*epoch=*/64);
            ASSERT_EQ(prat.aceCap(), rat.aceCap());

            Rng rng(seed);
            for (Cycle now = 0; now < 512; ++now) {
                randomizeCycle(ctx, n, rng);
                ASSERT_EQ(prat.fetchOrder(now), rat.fetchOrder(now))
                    << "diverged at cycle " << now;
            }
        }
    }
}

// (a) at the simulation level: an unprotected PRAT run serializes to the
// byte-identical `run v3` journal record as RAT's (policy name masked —
// it is the one field that legitimately differs).
TEST(PolicyProperties, AllNoneRunRecordMatchesRat)
{
    const auto &mix = findMix("2ctx-mix-A");
    auto cfg = table1Config(mix.contexts);
    cfg.fetchPolicy = FetchPolicyKind::Rat;
    auto rat = runMix(cfg, mix, /*budget=*/20000);
    cfg.fetchPolicy = FetchPolicyKind::PRat;
    auto prat = runMix(cfg, mix, /*budget=*/20000);

    EXPECT_STREQ(prat.policyName.c_str(), "PRAT");
    prat.policyName = rat.policyName;
    EXPECT_EQ(serializeRun(0, prat), serializeRun(0, rat));
}

// ---------------------------------------------------------------------------
// (b) Full SECDED: the weight floors at 1/256, the gate threshold
// (cap * 256) exceeds any reachable correct-path population, and PRAT
// degenerates to the base sort order without ever throttling.
TEST(PolicyProperties, FullSecdedNeverThrottles)
{
    for (unsigned n : {2u, 4u, 8u}) {
        SCOPED_TRACE("contexts=" + std::to_string(n));
        FakeContext ctx(n);
        ctx.protection = uniformProtection(ProtScheme::Secded);
        RatPolicy rat(ctx);
        PRatPolicy prat(ctx);

        Rng rng(99);
        for (Cycle now = 0; now < 512; ++now) {
            randomizeCycle(ctx, n, rng);
            // Crank the populations well past the RAT cap: RAT throttles,
            // PRAT must not.
            for (unsigned t = 0; t < n; ++t) {
                ctx.icount[t] += 500;
                ctx.wrongPath[t] = 0;
            }
            auto order = prat.fetchOrder(now);
            ASSERT_EQ(order.size(), n) << "throttled at cycle " << now;
            // Base ordering: RAT's rank (its gate trips for everyone, so
            // its fallback order is exactly the ungated sort).
            EXPECT_EQ(order, rat.fetchOrder(now));
            for (unsigned t = 0; t < n; ++t)
                EXPECT_EQ(prat.weight256(static_cast<ThreadId>(t)), 1u);
        }
        EXPECT_EQ(prat.throttledThreadCycles(), 0u);
    }
}

// (b) with the measured correction active: a ledger whose tallies conserve
// covered + residual == ACE under full SECDED keeps corr256 at the floor,
// so epoch refreshes never resurrect the throttle.
TEST(PolicyProperties, FullSecdedLedgerCorrectionStaysFloored)
{
    constexpr unsigned n = 2;
    FakeContext ctx(n);
    ctx.protection = uniformProtection(ProtScheme::Secded);

    AvfLedger ledger(n);
    for (std::size_t s = 0; s < numHwStructs; ++s)
        ledger.setStructureBits(static_cast<HwStruct>(s), 1 << 16);
    ledger.setProtection(ctx.protection);
    for (ThreadId t = 0; t < n; ++t) {
        ledger.addInterval(HwStruct::IQ, t, 64, 0, 1000, /*ace=*/true);
        ledger.addInterval(HwStruct::ROB, t, 64, 0, 1000, /*ace=*/true);
    }
    ctx.ledger = &ledger;

    PRatPolicy prat(ctx, /*ace_cap=*/0, /*epoch=*/16);
    Rng rng(5);
    for (Cycle now = 0; now < 256; ++now) {
        randomizeCycle(ctx, n, rng);
        prat.fetchOrder(now);
    }
    EXPECT_EQ(prat.throttledThreadCycles(), 0u);
    for (ThreadId t = 0; t < n; ++t)
        EXPECT_EQ(prat.corr256(t), 1u)
            << "SECDED residual 1/256 must floor the correction";
}

// ---------------------------------------------------------------------------
// (c) Monotonicity: replaying one identical script under progressively
// stronger coverage never increases the throttle duty cycle.
TEST(PolicyProperties, RaisingCoverageNeverRaisesThrottleDutyCycle)
{
    auto assignLadder = [](unsigned rung) {
        ProtectionConfig p;
        if (rung >= 1) {
            p.assign(HwStruct::IQ, ProtScheme::Parity);
            p.assign(HwStruct::ROB, ProtScheme::Parity);
        }
        if (rung >= 2) {
            p.assign(HwStruct::IQ, ProtScheme::Secded);
            p.assign(HwStruct::ROB, ProtScheme::Secded);
        }
        if (rung >= 3)
            p = uniformProtection(ProtScheme::Secded);
        return p;
    };

    for (std::uint64_t seed : {3ull, 17ull, 4242ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        std::uint64_t prev = ~0ull;
        for (unsigned rung = 0; rung < 4; ++rung) {
            FakeContext ctx(4);
            ctx.protection = assignLadder(rung);
            PRatPolicy prat(ctx, /*ace_cap=*/24);
            Rng rng(seed); // identical script every rung
            for (Cycle now = 0; now < 1024; ++now) {
                randomizeCycle(ctx, 4, rng);
                prat.fetchOrder(now);
            }
            EXPECT_LE(prat.throttledThreadCycles(), prev)
                << "rung " << rung << " throttled more than rung "
                << rung - 1;
            prev = prat.throttledThreadCycles();
        }
        EXPECT_EQ(prev, 0u) << "full SECDED rung must never throttle";
    }
}

// ---------------------------------------------------------------------------
// (d) Checkpoint hooks across ALL fetch policies: a freshly built policy
// restored from saveState bytes makes bit-identical decisions on the same
// scripted future. Only the fetchOrder surface is scripted here;
// hook-driven internals (miss-predictor tables, flush gates) are pinned
// end-to-end by the checkpoint differential matrix
// (tests/test_ckpt_diff.cc).
TEST(PolicyProperties, SaveLoadRoundTripAcrossAllPolicies)
{
    constexpr FetchPolicyKind kKinds[] = {
        FetchPolicyKind::RoundRobin, FetchPolicyKind::Icount,
        FetchPolicyKind::Flush,      FetchPolicyKind::Stall,
        FetchPolicyKind::Dg,         FetchPolicyKind::Pdg,
        FetchPolicyKind::DWarn,      FetchPolicyKind::PStall,
        FetchPolicyKind::Rat,        FetchPolicyKind::PRat,
    };
    for (FetchPolicyKind kind : kKinds) {
        SCOPED_TRACE(fetchPolicyName(kind));
        FakeContext ctx(4);
        std::string err;
        ASSERT_TRUE(parseAssignment("iq=secded,lsqdata=parity",
                                    ctx.protection, err))
            << err;
        FetchPolicyTuning tuning;
        tuning.pratEpoch = 32;
        tuning.pratCap = 24;

        auto a = makeFetchPolicy(kind, ctx, tuning);
        Rng warm(0xfeedULL + static_cast<std::uint64_t>(kind));
        for (Cycle now = 1; now <= 256; ++now) {
            randomizeCycle(ctx, 4, warm);
            a->fetchOrder(now);
        }

        Serializer ser;
        a->saveState(ser);
        auto b = makeFetchPolicy(kind, ctx, tuning);
        Deserializer des(ser.buffer());
        b->loadState(des);
        EXPECT_TRUE(des.exhausted());

        // Same scripted future, same decisions — epoch schedules and
        // accumulated corrections included.
        Rng future(0xbeefULL + static_cast<std::uint64_t>(kind));
        for (Cycle now = 257; now <= 512; ++now) {
            randomizeCycle(ctx, 4, future);
            EXPECT_EQ(a->fetchOrder(now), b->fetchOrder(now))
                << "cycle " << now;
        }
    }
}

// ---------------------------------------------------------------------------
// (e) Execution-shape invariance. One protected PRAT campaign, serialized
// record by record with the production writer; every execution shape must
// produce the same bytes.
std::vector<Experiment>
pratCampaign()
{
    std::vector<Experiment> exps;
    auto add = [&](const char *mix_name, std::uint32_t cap,
                   const char *assign) {
        const auto &mix = findMix(mix_name);
        Experiment e;
        e.label = std::string(mix_name) + "/PRAT";
        e.cfg = table1Config(mix.contexts);
        e.cfg.fetchPolicy = FetchPolicyKind::PRat;
        e.cfg.pratCap = cap;
        e.cfg.pratEpoch = 1024;
        if (assign && *assign) {
            std::string err;
            ASSERT_TRUE(parseAssignment(assign, e.cfg.protection, err))
                << err;
        }
        e.mix = mix;
        e.budget = 12000;
        exps.push_back(std::move(e));
    };
    add("2ctx-mix-A", 12, "iq=secded,rob=secded");
    add("2ctx-mem-A", 24, "iq=parity,lsqdata=secded");
    add("2ctx-cpu-A", 0, "");
    return exps;
}

std::vector<std::string>
serializeAll(const std::vector<Experiment> &exps,
             const std::vector<SimResult> &results)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < results.size(); ++i)
        out.push_back(
            serializeRun(experimentFingerprint(exps[i]), results[i]));
    return out;
}

TEST(PolicyProperties, JournalRecordsInvariantAcrossWorkerCounts)
{
    auto exps = pratCampaign();
    CampaignRunner serial(1), wide(4);
    auto a = serializeAll(exps, serial.run(exps));
    auto b = serializeAll(exps, wide.run(exps));
    ASSERT_EQ(a.size(), exps.size());
    EXPECT_EQ(a, b);
}

TEST(PolicyProperties, JournalRecordsInvariantAcrossIsolationModes)
{
    auto exps = pratCampaign();
    CampaignRunner pool(2);

    CampaignOptions thread_opt;
    thread_opt.isolate = IsolateMode::Thread;
    auto thread_report = runTolerant(pool, exps, thread_opt);
    ASSERT_TRUE(thread_report.allOk()) << thread_report.failureReport();

    CampaignOptions process_opt;
    process_opt.isolate = IsolateMode::Process;
    auto process_report = runTolerant(pool, exps, process_opt);
    ASSERT_TRUE(process_report.allOk()) << process_report.failureReport();

    for (std::size_t i = 0; i < exps.size(); ++i) {
        SCOPED_TRACE(exps[i].label);
        auto fp = experimentFingerprint(exps[i]);
        EXPECT_EQ(serializeRun(fp, thread_report.outcomes[i].result),
                  serializeRun(fp, process_report.outcomes[i].result));
    }
}

// ---------------------------------------------------------------------------
// Golden fixture: the campaign above journaled through the production
// `run v3` writer (one worker: append order == submission order) must
// reproduce tests/data/prat_golden.journal byte for byte. Pins the PRAT
// experiment-fingerprint fields (policy, pratEpoch, pratCap, protection)
// and the wire format in one committed artifact.
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(PolicyProperties, GoldenJournalMatchesFixture)
{
    auto exps = pratCampaign();
    auto path = ::testing::TempDir() + "prat-golden.journal";
    std::remove(path.c_str());

    CampaignRunner pool(1);
    CampaignOptions opt;
    opt.journalPath = path;
    auto report = runTolerant(pool, exps, opt);
    ASSERT_TRUE(report.allOk()) << report.failureReport();

    std::string journal = slurp(path);
    std::remove(path.c_str());
    ASSERT_FALSE(journal.empty());

    const std::string fixture =
        std::string(SMTAVF_TEST_DATA_DIR) + "/prat_golden.journal";
    if (std::getenv("SMTAVF_REGEN_GOLDEN")) {
        std::ofstream out(fixture, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << fixture;
        out << journal;
        GTEST_SKIP() << "regenerated " << fixture;
    }

    std::string want = slurp(fixture);
    ASSERT_FALSE(want.empty()) << "missing fixture " << fixture
                               << "; run once with SMTAVF_REGEN_GOLDEN=1";
    if (journal != want) {
        std::istringstream a(want), b(journal);
        std::string la, lb;
        std::size_t line = 0;
        while (true) {
            ++line;
            bool ha = static_cast<bool>(std::getline(a, la));
            bool hb = static_cast<bool>(std::getline(b, lb));
            if (!ha && !hb)
                break;
            if (!ha || !hb || la != lb) {
                FAIL() << "journal differs from fixture at line " << line
                       << "\n  fixture: "
                       << (ha ? la : std::string("<eof>")) << "\n  got:     "
                       << (hb ? lb : std::string("<eof>"))
                       << "\nrerun with SMTAVF_REGEN_GOLDEN=1 to bless an "
                          "intentional change";
            }
        }
        FAIL() << "journal differs from fixture (whitespace only?)";
    }
}

// The fixture resumes: replaying the campaign against the committed
// journal satisfies every run without re-simulating — the committed
// bytes double as a PRAT fingerprint-stability check (a fingerprint
// drift would miss the journal and re-run).
TEST(PolicyProperties, GoldenJournalResumesWithoutResimulating)
{
    const std::string fixture =
        std::string(SMTAVF_TEST_DATA_DIR) + "/prat_golden.journal";
    auto bytes = slurp(fixture);
    if (bytes.empty())
        GTEST_SKIP() << "fixture not generated yet";

    auto copy = ::testing::TempDir() + "prat-golden-resume.journal";
    {
        std::ofstream out(copy, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good());
        out << bytes;
    }

    auto exps = pratCampaign();
    CampaignRunner pool(2);
    CampaignOptions opt;
    opt.journalPath = copy;
    opt.resume = true;
    auto fresh = pool.run(exps);
    auto report = runTolerant(pool, exps, opt);
    std::remove(copy.c_str());
    ASSERT_TRUE(report.allOk()) << report.failureReport();
    for (std::size_t i = 0; i < exps.size(); ++i) {
        SCOPED_TRACE(exps[i].label);
        auto fp = experimentFingerprint(exps[i]);
        EXPECT_EQ(serializeRun(fp, report.outcomes[i].result),
                  serializeRun(fp, fresh[i]));
    }
}

} // namespace
} // namespace smtavf
