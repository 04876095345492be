/**
 * @file
 * Campaign-level tests for the protection explorer and the campaign CSV:
 * exploration must be bit-identical for any worker count (the
 * bench_fig9_protection determinism contract), the Pareto frontier must
 * hold its guaranteed shape, the prefix-sweep preset must reproduce the
 * sweep it replaced, a protection change must invalidate journaled
 * results on resume, and campaignCsv() must emit full-arity rows for
 * failed runs (the historical ragged-row bug).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "explorer_synthetic.hh"
#include "protect/explorer.hh"
#include "sim/journal.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

constexpr std::uint64_t kBudget = 3000;

ProtectionExplorer
smallExplorer()
{
    const auto &mix = findMix("2ctx-mix-A");
    return ProtectionExplorer(table1Config(mix.contexts), mix, kBudget);
}

/** The prefix sweep `protect --explore --depth 3` runs. */
const BeamOptions kPrefix3 = ProtectionExplorer::prefixSweep(10000, 3);

void
expectSamePoint(const ProtectionPoint &a, const ProtectionPoint &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.protection.str(), b.protection.str());
    EXPECT_EQ(a.rawSer, b.rawSer); // bit-exact, not approximate
    EXPECT_EQ(a.residualSer, b.residualSer);
    EXPECT_EQ(a.areaOverhead, b.areaOverhead);
    EXPECT_EQ(a.energyOverhead, b.energyOverhead);
    EXPECT_EQ(a.ipc, b.ipc);
}

TEST(Explorer, BitIdenticalAcrossWorkerCounts)
{
    auto explorer = smallExplorer();
    CampaignRunner serial(1);
    auto a = explorer.exploreBeam(serial, kPrefix3);
    CampaignRunner parallel(4);
    auto b = explorer.exploreBeam(parallel, kPrefix3);

    ASSERT_EQ(a.priority, b.priority);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label);
        expectSamePoint(a.points[i], b.points[i]);
    }
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(a.trace.size(), b.trace.size());
    EXPECT_EQ(a.csv(), b.csv());
}

TEST(Explorer, FrontierShapeAndSerIdentities)
{
    auto explorer = smallExplorer();
    CampaignRunner pool(2);
    auto result = explorer.exploreBeam(pool, kPrefix3);

    // Baseline first, then 3 schemes x depth candidates, each either
    // simulated or pruned by the cost-model proof.
    ASSERT_FALSE(result.points.empty());
    EXPECT_EQ(result.points[0].label, "none");
    EXPECT_FALSE(result.points[0].protection.any());
    ASSERT_GE(result.priority.size(), 3u);
    EXPECT_EQ(result.evaluations + result.prunedCount, 3u * 3u);
    EXPECT_EQ(result.points.size(), 1u + result.evaluations);

    std::size_t protected_on_frontier = 0;
    for (auto i : result.frontier) {
        ASSERT_LT(i, result.points.size());
        if (result.points[i].protection.any())
            ++protected_on_frontier;
    }
    // The guaranteed shape: the unprotected point is non-dominated (zero
    // overhead) and at least three protected assignments survive.
    EXPECT_NE(std::find(result.frontier.begin(), result.frontier.end(),
                        std::size_t{0}),
              result.frontier.end());
    EXPECT_GE(protected_on_frontier, 3u);

    for (const auto &p : result.points) {
        SCOPED_TRACE(p.label);
        // The overlay never perturbs timing: every candidate reruns the
        // same workload, so raw SER and IPC match the baseline exactly.
        EXPECT_EQ(p.rawSer, result.points[0].rawSer);
        EXPECT_EQ(p.ipc, result.points[0].ipc);
        EXPECT_LE(p.residualSer, p.rawSer);
        if (!p.protection.any())
            EXPECT_EQ(p.residualSer, p.rawSer);
        else
            EXPECT_LT(p.residualSer, p.rawSer);
    }
}

TEST(Explorer, CandidatesCoverSchemesTimesDepth)
{
    // A synthetic evaluator stands in for the simulator: the preset's
    // candidates are a function of the hotspot ranking alone.
    auto explorer = smallExplorer();
    CampaignRunner pool(1);
    for (unsigned depth : {2u, 99u}) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        BeamOptions opt = ProtectionExplorer::prefixSweep(500, depth);
        opt.runFn = [](const Experiment &e, std::size_t) {
            return syntheticExplorerRun(e, 1);
        };
        auto result = explorer.exploreBeam(pool, opt);
        ASSERT_GE(result.priority.size(), 3u);
        // 3 schemes x depth; depth never exceeds the ranking.
        const std::size_t k = std::min<std::size_t>(depth,
                                                     result.priority.size());
        ASSERT_EQ(result.trace.size(), 3u * k);
        EXPECT_EQ(result.evaluations + result.prunedCount, 3u * k);
        for (const auto &t : result.trace) {
            SCOPED_TRACE(t.assignment);
            EXPECT_EQ(t.generation, 0u);
            ProtectionConfig c;
            std::string err;
            ASSERT_TRUE(parseAssignment(t.assignment, c, err)) << err;
            // One scheme on a prefix of the ranking, scrubbing at the
            // requested interval.
            std::size_t covered = 0;
            for (std::size_t i = 0; i < result.priority.size(); ++i) {
                auto sc = c.schemeFor(result.priority[i]);
                if (sc == ProtScheme::None)
                    continue;
                EXPECT_EQ(i, covered) << "not a prefix of the ranking";
                EXPECT_EQ(sc, c.schemeFor(result.priority[0]));
                if (sc == ProtScheme::SecdedScrub) {
                    EXPECT_EQ(c.scrubIntervalFor(result.priority[i]), 500u);
                }
                ++covered;
            }
            EXPECT_GE(covered, 1u);
            EXPECT_LE(covered, k);
        }
    }
}

// --- the prefix-sweep preset against the sweep it replaced --------------

/** Per-structure scheme plus the effective scrub interval, as one key. */
std::string
assignmentKey(const ProtectionConfig &p)
{
    std::string key;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (p.schemeFor(s) == ProtScheme::None)
            continue;
        key += std::string(hwStructKey(s)) + '=' +
               protSchemeName(p.schemeFor(s));
        if (p.schemeFor(s) == ProtScheme::SecdedScrub)
            key += '@' + std::to_string(p.scrubIntervalFor(s));
        key += ' ';
    }
    return key.empty() ? "none" : key;
}

/**
 * Reference model of the prefix sweep as a plain candidate loop: the
 * unprotected baseline ranks the hotspots, then parity, SECDED and
 * SECDED+scrub each protect the top-1..depth of them, every candidate
 * simulated at the requested @p scrub interval.
 */
std::map<std::string, ProtectionPoint>
referencePrefixFrontier(const MachineConfig &base, const WorkloadMix &mix,
                        unsigned depth, Cycle scrub)
{
    const auto bits = structureBitCapacities(base);
    AvfReport base_avf;
    auto evaluate = [&](const ProtectionConfig &prot) {
        Experiment e;
        e.cfg = base;
        e.cfg.protection = prot;
        e.mix = mix;
        e.budget = kBudget;
        SimResult r = runExperiment(e);
        if (!prot.any())
            base_avf = r.avf;
        ProtectionPoint p;
        p.protection = prot;
        p.rawSer = serProxy(r.avf, bits, /*residual=*/false);
        p.residualSer = serProxy(r.avf, bits, /*residual=*/true);
        auto cost = protectionCost(e.cfg);
        p.areaOverhead = cost.areaOverhead;
        p.energyOverhead = cost.energyOverhead;
        p.ipc = r.ipc;
        return p;
    };
    std::vector<ProtectionPoint> points = {evaluate({})};
    std::vector<HwStruct> priority;
    for (auto s : AvfReport::figureStructs())
        if (base_avf.avf(s) > 0.0)
            priority.push_back(s);
    std::stable_sort(priority.begin(), priority.end(),
                     [&](HwStruct a, HwStruct b) {
                         return base_avf.avf(a) > base_avf.avf(b);
                     });
    const std::size_t k_max = std::min<std::size_t>(depth, priority.size());
    for (auto scheme : {ProtScheme::Parity, ProtScheme::Secded,
                        ProtScheme::SecdedScrub}) {
        for (std::size_t k = 1; k <= k_max; ++k) {
            ProtectionConfig p;
            p.scrubInterval = scrub;
            for (std::size_t i = 0; i < k; ++i)
                p.assign(priority[i], scheme);
            points.push_back(evaluate(p));
        }
    }
    std::map<std::string, ProtectionPoint> frontier;
    for (auto i : ProtectionExplorer::paretoFrontier(points))
        frontier[assignmentKey(points[i].protection)] = points[i];
    return frontier;
}

struct PrefixCase
{
    const char *mix;
    FetchPolicyKind policy;
    unsigned depth;
    Cycle scrub;
};

std::string
caseName(const PrefixCase &c)
{
    std::string mix = c.mix;
    std::replace(mix.begin(), mix.end(), '-', '_');
    return mix + "_" + fetchPolicyName(c.policy) + "_depth" +
           std::to_string(c.depth) + "_scrub" + std::to_string(c.scrub);
}

/** CTest names each case after its printed value: keep it stable. */
void
PrintTo(const PrefixCase &c, std::ostream *os)
{
    *os << caseName(c);
}

std::vector<PrefixCase>
prefixCases()
{
    std::vector<PrefixCase> out;
    for (const char *mix : {"2ctx-mix-A", "4ctx-mix-A"})
        for (auto policy : {FetchPolicyKind::Icount, FetchPolicyKind::PRat})
            for (unsigned depth : {2u, 4u})
                for (Cycle scrub : {Cycle{500}, Cycle{10000}})
                    out.push_back({mix, policy, depth, scrub});
    return out;
}

class ExplorerPrefix : public ::testing::TestWithParam<PrefixCase>
{
};

// The --explore preset and the reference sweep must reach the same
// frontier, bit for bit. Pruning may skip simulating candidates the
// reference evaluates, but only dominated ones. The 500-cycle cases pin
// that the preset scrubs at the requested interval, not the default.
TEST_P(ExplorerPrefix, PresetMatchesReferenceSweep)
{
    const auto &[mix_name, policy, depth, scrub] = GetParam();
    const auto &mix = findMix(mix_name);
    MachineConfig cfg = table1Config(mix.contexts);
    cfg.fetchPolicy = policy;

    ProtectionExplorer explorer(cfg, mix, kBudget);
    CampaignRunner pool(2);
    auto result =
        explorer.exploreBeam(pool, ProtectionExplorer::prefixSweep(scrub,
                                                                   depth));
    EXPECT_EQ(result.evaluations + result.prunedCount,
              3u * std::min<std::size_t>(depth, result.priority.size()));
    std::map<std::string, ProtectionPoint> preset;
    for (auto i : result.frontier)
        preset[assignmentKey(result.points[i].protection)] =
            result.points[i];

    auto reference = referencePrefixFrontier(cfg, mix, depth, scrub);
    ASSERT_EQ(preset.size(), reference.size());
    for (const auto &[key, want] : reference) {
        SCOPED_TRACE(key);
        auto it = preset.find(key);
        ASSERT_NE(it, preset.end()) << "missing from the preset frontier";
        const ProtectionPoint &got = it->second;
        EXPECT_EQ(got.residualSer, want.residualSer); // bit-exact
        EXPECT_EQ(got.areaOverhead, want.areaOverhead);
        EXPECT_EQ(got.energyOverhead, want.energyOverhead);
        EXPECT_EQ(got.ipc, want.ipc);
    }
}

INSTANTIATE_TEST_SUITE_P(MixPolicyDepthScrub, ExplorerPrefix,
                         ::testing::ValuesIn(prefixCases()),
                         [](const auto &info) {
                             return caseName(info.param);
                         });

TEST(Explorer, ParetoFrontierFiltersDominatedPoints)
{
    auto point = [](double ser, double area, double energy, double ipc) {
        ProtectionPoint p;
        p.residualSer = ser;
        p.areaOverhead = area;
        p.energyOverhead = energy;
        p.ipc = ipc;
        return p;
    };
    std::vector<ProtectionPoint> pts = {
        point(0.20, 0.00, 0.00, 1.0), // cheapest, worst SER: frontier
        point(0.10, 0.05, 0.04, 1.0), // strictly between: frontier
        point(0.10, 0.06, 0.05, 1.0), // dominated by [1]
        point(0.05, 0.12, 0.10, 1.0), // best SER, priciest: frontier
        point(0.20, 0.01, 0.01, 1.0), // dominated by [0]
    };
    auto frontier = ProtectionExplorer::paretoFrontier(pts);
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Explorer, ProtectionChangeInvalidatesJournaledRuns)
{
    auto path = ::testing::TempDir() + "protect-resume.journal";
    std::remove(path.c_str());

    std::vector<Experiment> exps;
    for (const char *name : {"2ctx-cpu-A", "2ctx-mix-A"})
        exps.push_back(makeExperiment(findMix(name),
                                      FetchPolicyKind::Icount, kBudget));

    CampaignRunner pool(2);
    CampaignOptions opt;
    opt.journalPath = path;
    ASSERT_TRUE(runTolerant(pool, exps, opt).allOk());

    // Re-key one experiment by protecting a structure; resume must
    // replay only the untouched one and honestly re-run the other.
    exps[1].cfg.protection.assign(HwStruct::IQ, ProtScheme::Secded);
    CampaignOptions ropt;
    ropt.journalPath = path;
    ropt.resume = true;
    auto resumed = runTolerant(pool, exps, ropt);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    EXPECT_FALSE(resumed.outcomes[1].fromJournal);
    EXPECT_GT(resumed.outcomes[1].result.avf.avf(HwStruct::IQ),
              resumed.outcomes[1].result.avf.residualAvf(HwStruct::IQ));
    std::remove(path.c_str());
}

// --- campaign CSV (the ragged-row regression) ---------------------------

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::size_t
commas(const std::string &line)
{
    return static_cast<std::size_t>(
        std::count(line.begin(), line.end(), ','));
}

TEST(CampaignCsv, EveryRowHasFullArity)
{
    std::vector<Experiment> exps;
    for (const char *name : {"2ctx-cpu-A", "2ctx-mix-A", "2ctx-mem-A"})
        exps.push_back(makeExperiment(findMix(name),
                                      FetchPolicyKind::Icount, kBudget));

    CampaignOptions opt;
    opt.retries = 0;
    opt.runFn = [](const Experiment &e, std::size_t i) -> SimResult {
        if (i == 1)
            throw std::runtime_error("exploded: stage 2, cause unknown");
        return runExperiment(e);
    };
    CampaignRunner pool(1);
    auto report = runTolerant(pool, exps, opt);
    ASSERT_FALSE(report.allOk());

    auto lines = splitLines(campaignCsv(exps, report));
    ASSERT_EQ(lines.size(), 1u + exps.size());

    // Header declares status, residual columns and the error cell.
    EXPECT_NE(lines[0].find("label,seed,status,attempts"),
              std::string::npos);
    EXPECT_NE(lines[0].find("residual_IQ"), std::string::npos);
    EXPECT_NE(lines[0].find(",error"), std::string::npos);

    // The bug this guards against: non-Ok rows used to stop after the
    // attempts column. Every row must now match the header's arity.
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(commas(lines[i]), commas(lines[0])) << lines[i];

    // The failed row carries its status and a comma-free error message.
    EXPECT_NE(lines[2].find(",failed,"), std::string::npos);
    EXPECT_NE(lines[2].find("exploded: stage 2; cause unknown"),
              std::string::npos);
    // Ok rows end with an empty error cell.
    EXPECT_EQ(lines[1].back(), ',');
}

TEST(CampaignCsv, MismatchedSizesAreFatal)
{
    std::vector<Experiment> exps = {makeExperiment(
        findMix("2ctx-cpu-A"), FetchPolicyKind::Icount, kBudget)};
    CampaignReport empty;
    ThrowGuard guard;
    EXPECT_THROW(campaignCsv(exps, empty), SimError);
}

} // namespace
} // namespace smtavf
