/**
 * @file
 * Golden fixture for the cycle-level core: tests/data/core_golden.journal
 * pins what the pipeline computes, end to end, for the paper's main
 * experiment axes — one short `run v3` record per (context count,
 * fetch policy) over 1, 2, 4 and 8 contexts and the six Fig. 6 policies
 * (ICOUNT, FLUSH, STALL, DG, PDG, DWarn). '#' comment lines pin three
 * more surfaces: the injection verdict counts of one recorded commit
 * trace (which depend on every FDD verdict the dead-code analyzer
 * records in it), the integer rows of one `--avf-interval` run, whose
 * own record precedes them, and the per-structure window AVFs of one
 * `--sample` run as hexfloats (bit-exact doubles). Four records run the
 * DL1 tracker under parity, SECDED, SECDED+scrub and, per line, SECDED,
 * so their residual columns pin its coverage arithmetic. Four last
 * records measure 12000 instructions after a 20000-instruction warmup,
 * so they pin the drain at the boundary; the last of them prints its
 * `--sample` windows too.
 *
 * Any change to a simulated statistic, a journal byte, a deadness
 * verdict or an interval boundary shows up here as a readable line
 * diff. To bless an intentional change, rerun with SMTAVF_REGEN_GOLDEN=1
 * and commit the rewritten fixture alongside the code.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avf/injection.hh"
#include "sim/campaign.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

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

/** One mix per context count: solo, then MIX and MEM groups. */
std::vector<WorkloadMix>
sweepMixes()
{
    return {WorkloadMix{"1ctx-twolf", 1, MixType::Mix, 'A', {"twolf"}},
            findMix("2ctx-mix-A"), findMix("4ctx-mix-A"),
            findMix("8ctx-mem-A")};
}

constexpr FetchPolicyKind kPolicies[] = {
    FetchPolicyKind::Icount, FetchPolicyKind::Flush, FetchPolicyKind::Stall,
    FetchPolicyKind::Dg,     FetchPolicyKind::Pdg,   FetchPolicyKind::DWarn};

/** The fixture's text, regenerated from scratch by the current code. */
std::string
goldenText()
{
    std::ostringstream os;
    os << "# smtavf core golden fixture (tests/test_core_golden.cc)\n";
    for (const auto &mix : sweepMixes()) {
        for (FetchPolicyKind policy : kPolicies) {
            auto e = makeExperiment(mix, policy, 5000 * mix.contexts);
            os << serializeRun(experimentFingerprint(e), runExperiment(e))
               << "\n";
        }
    }

    {
        auto cfg = table1Config(2);
        cfg.recordCommitTrace = true;
        Simulator sim(cfg, findMix("2ctx-mix-A"));
        auto r = sim.run(8000);
        const auto &recs = r.commitTrace->records();
        std::size_t dead = 0;
        for (const auto &rec : recs)
            dead += rec.destDead ? 1 : 0;
        auto inj = InjectionCampaign(*r.commitTrace).run(600, 7);
        os << "# inject mix=2ctx-mix-A records=" << recs.size()
           << " dead=" << dead << " trials=" << inj.trials
           << " masked=" << inj.masked << " corrupted=" << inj.corrupted
           << " skipped=" << inj.skipped << "\n";
    }

    {
        auto e = makeExperiment(findMix("4ctx-mem-A"),
                                FetchPolicyKind::Flush, 12000);
        Simulator sim(e.cfg, e.mix);
        RunControls rc;
        rc.avfInterval = 2500;
        auto r = sim.run(e.budget, rc);
        os << serializeRun(experimentFingerprint(e), r) << "\n";
        for (const auto &row : r.avfIntervals->data()) {
            os << "# interval " << row.index << " instr=" << row.startInstr
               << ".." << row.endInstr << " cycles=" << row.startCycle
               << ".." << row.endCycle << " ace=";
            for (auto v : row.aceDelta)
                os << v << ",";
            os << " residual=";
            for (auto v : row.residualDelta)
                os << v << ",";
            os << "\n";
        }
    }

    {
        auto e = makeExperiment(findMix("4ctx-mem-A"),
                                FetchPolicyKind::Flush, 12000);
        e.cfg.avfSampleCycles = 1000;
        auto r = runExperiment(e);
        for (const auto &row : r.timeline->data()) {
            os << "# window " << row.index << " avf=" << std::hexfloat;
            for (double v : row.avf)
                os << v << ",";
            os << std::defaultfloat << "\n";
        }
    }

    // The real DL1 tracker under protection: the records' residual
    // columns are hexfloats, so they pin every per-interval coverage
    // floor of the data and tag arrays, per byte and per line.
    {
        auto dl1 = [](ProtScheme p) {
            ProtectionConfig c;
            c.assign(HwStruct::Dl1Data, p);
            c.assign(HwStruct::Dl1Tag, p);
            return c;
        };
        ProtectionConfig scrub;
        scrub.assignScrub(HwStruct::Dl1Data, 64);
        scrub.assignScrub(HwStruct::Dl1Tag, 64);
        ProtectionConfig data_secded;
        data_secded.assign(HwStruct::Dl1Data, ProtScheme::Secded);

        struct Case
        {
            ProtectionConfig protection;
            bool perByte;
        };
        const Case cases[] = {{dl1(ProtScheme::Parity), true},
                              {dl1(ProtScheme::Secded), true},
                              {scrub, true},
                              {data_secded, false}};
        for (const auto &c : cases) {
            auto e = makeExperiment(findMix("4ctx-mem-A"),
                                    FetchPolicyKind::Flush, 12000);
            e.cfg.protection = c.protection;
            e.cfg.avf.perByteCacheAvf = c.perByte;
            os << serializeRun(experimentFingerprint(e), runExperiment(e))
               << "\n";
        }
    }

    // Warmup-boundary runs: the drain at the boundary, and the measured
    // window after it, of 20000 warmup instructions. The last one also
    // prints its cycle windows, which open at the boundary.
    {
        struct Case
        {
            const char *mix;
            FetchPolicyKind policy;
            Cycle sampleCycles;
        };
        const Case cases[] = {{"4ctx-mem-A", FetchPolicyKind::Icount, 0},
                              {"4ctx-mem-A", FetchPolicyKind::Flush, 0},
                              {"8ctx-mem-A", FetchPolicyKind::Flush, 0},
                              {"4ctx-mem-A", FetchPolicyKind::Flush, 1000}};
        for (const auto &c : cases) {
            auto e = makeExperiment(findMix(c.mix), c.policy, 12000);
            e.warmup = 20000;
            e.cfg.avfSampleCycles = c.sampleCycles;
            auto r = runExperiment(e);
            os << serializeRun(experimentFingerprint(e), r) << "\n";
            if (!r.timeline)
                continue;
            for (const auto &row : r.timeline->data()) {
                os << "# window " << row.index << " avf=" << std::hexfloat;
                for (double v : row.avf)
                    os << v << ",";
                os << std::defaultfloat << "\n";
            }
        }
    }
    return os.str();
}

TEST(CoreGolden, MatchesFixture)
{
    const std::string got = goldenText();
    const std::string fixture =
        std::string(SMTAVF_TEST_DATA_DIR) + "/core_golden.journal";
    if (std::getenv("SMTAVF_REGEN_GOLDEN")) {
        std::ofstream out(fixture, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << fixture;
        out << got;
        GTEST_SKIP() << "regenerated " << fixture;
    }

    const std::string want = slurp(fixture);
    ASSERT_FALSE(want.empty()) << "missing fixture " << fixture
                               << "; run once with SMTAVF_REGEN_GOLDEN=1";
    std::istringstream a(want), b(got);
    std::string la, lb;
    for (std::size_t line = 1;; ++line) {
        bool ha = static_cast<bool>(std::getline(a, la));
        bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            break;
        ASSERT_TRUE(ha && hb && la == lb)
            << "core output differs from fixture at line " << line
            << "\n  fixture: " << (ha ? la : std::string("<eof>"))
            << "\n  got:     " << (hb ? lb : std::string("<eof>"))
            << "\nrerun with SMTAVF_REGEN_GOLDEN=1 to bless an intentional "
               "change";
    }
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace smtavf
