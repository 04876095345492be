/**
 * @file
 * Property harness for the beam-search protection explorer. The frontier
 * the search reports must be provably right, not just plausible:
 *
 *  (a) no reported frontier point is weakly dominated by ANY evaluated
 *      candidate;
 *  (b) the whole result — points, frontier, trace — is bit-identical for
 *      any worker count, and the frontier is invariant under evaluation
 *      order (it is a set property of the evaluated points);
 *  (c) a beam wide enough to hold the whole space reproduces exhaustive
 *      search exactly on a tiny 3-structure space;
 *  (d) cost-model pruning never removes a point of the exhaustive
 *      frontier (the optimistic-bound proof, tested empirically);
 *  (e) a restarted/resumed search replays journaled candidates instead of
 *      re-simulating them and lands on the bit-identical frontier, even
 *      when only part of the journal survived.
 *
 * Most tests drive the search through the CampaignOptions::runFn seam
 * with a synthetic, simulation-free evaluator, so thousands of candidate
 * evaluations cost microseconds and the exhaustive reference is cheap.
 * The evaluator respects the two invariants the pruning proof leans on —
 * IPC and raw AVF are candidate-independent (the protection overlay never
 * perturbs timing) and residual AVF never falls below each scheme's
 * coverage floor — and uses exact dyadic rationals throughout so every
 * comparison is bit-exact. One test runs the real simulator end-to-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
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

SimResult
syntheticRun(const Experiment &e, unsigned space_seed)
{
    return syntheticExplorerRun(e, space_seed);
}

struct Setup
{
    MachineConfig cfg;
    WorkloadMix mix;
};

Setup
smallSetup()
{
    const auto &mix = findMix("2ctx-mix-A");
    return {table1Config(mix.contexts), mix};
}

BeamOptions
syntheticOptions(unsigned space_seed)
{
    BeamOptions opt;
    opt.beamWidth = 3;
    opt.generations = 3;
    opt.maxStructures = 4;
    opt.scrubLadder = {4096, 65536}; // powers of two: exact dyadics
    opt.runFn = [space_seed](const Experiment &e, std::size_t) {
        return syntheticRun(e, space_seed);
    };
    return opt;
}

/** Exactly the explorer's point construction, for exhaustive references. */
ProtectionPoint
makePoint(const MachineConfig &base, const ProtectionConfig &prot,
          const SimResult &r)
{
    MachineConfig cfg = base;
    cfg.protection = prot;
    const auto bits = structureBitCapacities(cfg);
    auto cost = protectionCost(cfg);
    ProtectionPoint p;
    p.label = prot.str();
    p.protection = prot;
    p.rawSer = serProxy(r.avf, bits, /*residual=*/false);
    p.residualSer = serProxy(r.avf, bits, /*residual=*/true);
    p.areaOverhead = cost.areaOverhead;
    p.energyOverhead = cost.energyOverhead;
    p.ipc = r.ipc;
    return p;
}

/** Exhaustive reference: every assignment of the space, evaluated. */
std::vector<ProtectionPoint>
exhaustivePoints(const Setup &s, const std::vector<HwStruct> &structs,
                 const std::vector<Cycle> &ladder, unsigned space_seed)
{
    std::vector<ProtectionPoint> pts;
    for (const auto &prot :
         ProtectionExplorer::allAssignments(structs, ladder)) {
        Experiment e;
        e.cfg = s.cfg;
        e.cfg.protection = prot;
        e.mix = s.mix;
        e.budget = kBudget;
        pts.push_back(makePoint(s.cfg, prot, syntheticRun(e, space_seed)));
    }
    return pts;
}

std::set<std::string>
labelSet(const std::vector<ProtectionPoint> &pts,
         const std::vector<std::size_t> &idx)
{
    std::set<std::string> out;
    for (auto i : idx)
        out.insert(pts[i].label);
    return out;
}

void
expectSamePoint(const ProtectionPoint &a, const ProtectionPoint &b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.rawSer, b.rawSer); // bit-exact, not approximate
    EXPECT_EQ(a.residualSer, b.residualSer);
    EXPECT_EQ(a.areaOverhead, b.areaOverhead);
    EXPECT_EQ(a.energyOverhead, b.energyOverhead);
    EXPECT_EQ(a.ipc, b.ipc);
}

// (a) Soundness: nothing the search evaluated dominates a frontier point.
TEST(BeamProperties, FrontierNeverDominatedByAnyEvaluatedCandidate)
{
    auto s = smallSetup();
    for (unsigned seed : {1u, 2u, 5u}) {
        SCOPED_TRACE("space seed " + std::to_string(seed));
        ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
        CampaignRunner pool(2);
        auto result = explorer.exploreBeam(pool, syntheticOptions(seed));

        ASSERT_FALSE(result.frontier.empty());
        for (auto f : result.frontier)
            for (const auto &p : result.points)
                EXPECT_FALSE(ProtectionExplorer::dominates(p,
                                                           result.points[f]))
                    << p.label << " dominates frontier point "
                    << result.points[f].label;
        // The reported frontier IS the Pareto set of the evaluated points.
        EXPECT_EQ(result.frontier,
                  ProtectionExplorer::paretoFrontier(result.points));
    }
}

// (b) Determinism: bit-identical for any worker count; the frontier is a
// set property, invariant under candidate evaluation order.
TEST(BeamProperties, BitIdenticalAcrossWorkerCountsAndEvaluationOrder)
{
    auto s = smallSetup();
    ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
    CampaignRunner serial(1);
    auto a = explorer.exploreBeam(serial, syntheticOptions(3));
    CampaignRunner parallel(4);
    auto b = explorer.exploreBeam(parallel, syntheticOptions(3));

    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label);
        expectSamePoint(a.points[i], b.points[i]);
    }
    EXPECT_EQ(a.frontier, b.frontier);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.prunedCount, b.prunedCount);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].generation, b.trace[i].generation);
        EXPECT_EQ(a.trace[i].assignment, b.trace[i].assignment);
        EXPECT_EQ(a.trace[i].action, b.trace[i].action);
    }
    EXPECT_EQ(a.csv(), b.csv());
    EXPECT_EQ(a.json(), b.json());

    // Order invariance: permute the evaluated points and the frontier
    // comes back as the same set of assignments.
    auto shuffled = a.points;
    std::reverse(shuffled.begin(), shuffled.end());
    std::rotate(shuffled.begin(), shuffled.begin() + shuffled.size() / 3,
                shuffled.end());
    EXPECT_EQ(labelSet(shuffled,
                       ProtectionExplorer::paretoFrontier(shuffled)),
              labelSet(a.points, a.frontier));
}

// (c) Completeness: a beam holding the whole space IS exhaustive search.
TEST(BeamProperties, WideBeamReproducesExhaustiveSearch)
{
    auto s = smallSetup();
    constexpr unsigned seed = 4;
    ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
    CampaignRunner pool(2);

    BeamOptions opt = syntheticOptions(seed);
    opt.maxStructures = 3;
    opt.scrubLadder = {4096};  // 4 variants^3 structures = 64 assignments
    opt.beamWidth = 4096;      // >= |space|: nothing ever falls off
    opt.generations = 4;       // >= space diameter under single moves
    auto beam = explorer.exploreBeam(pool, opt);

    ASSERT_GE(beam.priority.size(), 3u);
    std::vector<HwStruct> structs(beam.priority.begin(),
                                  beam.priority.begin() + 3);
    auto exhaustive = exhaustivePoints(s, structs, opt.scrubLadder, seed);
    ASSERT_EQ(exhaustive.size(), 64u);
    auto exhaustive_frontier =
        ProtectionExplorer::paretoFrontier(exhaustive);

    EXPECT_EQ(labelSet(beam.points, beam.frontier),
              labelSet(exhaustive, exhaustive_frontier));
    // Values, not just names: frontier points must match bit-for-bit.
    for (auto bi : beam.frontier) {
        const auto &bp = beam.points[bi];
        auto it = std::find_if(exhaustive.begin(), exhaustive.end(),
                               [&](const ProtectionPoint &p) {
                                   return p.label == bp.label;
                               });
        ASSERT_NE(it, exhaustive.end()) << bp.label;
        SCOPED_TRACE(bp.label);
        expectSamePoint(*it, bp);
    }
}

// (d) Safe pruning: the optimistic-bound proof holds empirically — no
// pruned candidate belongs to the exhaustive frontier.
TEST(BeamProperties, PruningNeverRemovesAnExhaustiveFrontierPoint)
{
    auto s = smallSetup();
    for (unsigned seed : {1u, 4u, 7u}) {
        SCOPED_TRACE("space seed " + std::to_string(seed));
        ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
        CampaignRunner pool(2);

        BeamOptions opt = syntheticOptions(seed);
        opt.maxStructures = 3;
        opt.scrubLadder = {4096};
        opt.beamWidth = 4096;
        opt.generations = 4;
        auto beam = explorer.exploreBeam(pool, opt);

        std::vector<HwStruct> structs(beam.priority.begin(),
                                      beam.priority.begin() + 3);
        auto exhaustive =
            exhaustivePoints(s, structs, opt.scrubLadder, seed);
        auto frontier_labels = labelSet(
            exhaustive, ProtectionExplorer::paretoFrontier(exhaustive));

        std::size_t pruned = 0;
        for (const auto &t : beam.trace)
            if (t.action == BeamTraceEvent::Action::Pruned) {
                ++pruned;
                EXPECT_EQ(frontier_labels.count(t.assignment), 0u)
                    << "pruned a frontier point: " << t.assignment;
            }
        EXPECT_EQ(pruned, beam.prunedCount);
        // The property must not hold vacuously.
        EXPECT_GT(pruned, 0u);
    }
}

// (e) Resume: journal replay is bit-identical and never re-simulates a
// seen assignment — even from a partial journal, and even under an
// evaluation budget (which counts journal replays as submissions).
TEST(BeamProperties, ResumeFromFullOrPartialJournalIsBitIdentical)
{
    auto s = smallSetup();
    auto path = ::testing::TempDir() + "beam-props.journal";
    auto partial = ::testing::TempDir() + "beam-props-partial.journal";
    std::remove(path.c_str());
    std::remove(partial.c_str());

    std::atomic<std::uint64_t> simulated{0};
    auto counting = [&](unsigned seed) {
        BeamOptions opt = syntheticOptions(seed);
        opt.evalBudget = 25; // truncate the search mid-generation
        opt.runFn = [&simulated, seed](const Experiment &e, std::size_t) {
            ++simulated;
            return syntheticRun(e, seed);
        };
        return opt;
    };

    ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
    CampaignRunner pool(1);

    auto fresh_opt = counting(2);
    fresh_opt.journalPath = path;
    auto fresh = explorer.exploreBeam(pool, fresh_opt);
    EXPECT_EQ(fresh.evaluations, 25u);
    EXPECT_EQ(fresh.journalHits, 0u);
    std::uint64_t fresh_sims = simulated.exchange(0);
    EXPECT_EQ(fresh_sims, fresh.evaluations + 1); // + the baseline

    auto expectSameSearch = [&](const ExplorationResult &r) {
        ASSERT_EQ(r.points.size(), fresh.points.size());
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            SCOPED_TRACE(fresh.points[i].label);
            expectSamePoint(r.points[i], fresh.points[i]);
        }
        EXPECT_EQ(r.frontier, fresh.frontier);
        EXPECT_EQ(r.evaluations, fresh.evaluations);
        EXPECT_EQ(r.prunedCount, fresh.prunedCount);
        ASSERT_EQ(r.trace.size(), fresh.trace.size());
        for (std::size_t i = 0; i < r.trace.size(); ++i) {
            EXPECT_EQ(r.trace[i].assignment, fresh.trace[i].assignment);
            EXPECT_EQ(r.trace[i].action, fresh.trace[i].action);
        }
    };

    // Full-journal resume: nothing re-simulates.
    auto full_opt = counting(2);
    full_opt.journalPath = path;
    full_opt.resume = true;
    auto resumed = explorer.exploreBeam(pool, full_opt);
    expectSameSearch(resumed);
    EXPECT_EQ(resumed.journalHits, resumed.evaluations);
    EXPECT_EQ(simulated.exchange(0), 0u);

    // Partial-journal resume: keep the first 10 run records (the crash
    // case); replays those, honestly re-simulates the rest, and still
    // walks the exact original trajectory because the budget counts
    // journal replays as submissions.
    {
        std::ifstream in(path);
        std::ofstream out(partial);
        std::string line;
        std::size_t kept = 0;
        while (kept < 10 && std::getline(in, line))
            if (line.rfind("run v3 ", 0) == 0) {
                out << line << '\n';
                ++kept;
            }
        ASSERT_EQ(kept, 10u);
    }
    auto partial_opt = counting(2);
    partial_opt.journalPath = partial;
    partial_opt.resume = true;
    auto partial_res = explorer.exploreBeam(pool, partial_opt);
    expectSameSearch(partial_res);
    EXPECT_EQ(partial_res.journalHits, 9u); // 10 kept - the baseline
    EXPECT_EQ(simulated.exchange(0),
              partial_res.evaluations - partial_res.journalHits);

    std::remove(path.c_str());
    std::remove(partial.c_str());
}

// Option validation dies loudly (the CLI parser rejects these earlier;
// this guards direct library users), and the helper surfaces behave.
TEST(BeamProperties, OptionValidationAndHelpers)
{
    auto s = smallSetup();
    ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
    CampaignRunner pool(1);
    ThrowGuard guard;

    BeamOptions opt = syntheticOptions(1);
    opt.beamWidth = 0;
    EXPECT_THROW(explorer.exploreBeam(pool, opt), SimError);
    opt = syntheticOptions(1);
    opt.maxStructures = 0;
    EXPECT_THROW(explorer.exploreBeam(pool, opt), SimError);
    opt = syntheticOptions(1);
    opt.scrubLadder = {0};
    EXPECT_THROW(explorer.exploreBeam(pool, opt), SimError);
    opt = syntheticOptions(1);
    opt.scrubLadder = {Cycle{1} << 31};
    EXPECT_THROW(explorer.exploreBeam(pool, opt), SimError);

    // defaultScrubLadder: decade around the interval, clamped and deduped.
    EXPECT_EQ(ProtectionExplorer::defaultScrubLadder(10000),
              (std::vector<Cycle>{1000, 10000, 100000}));
    EXPECT_EQ(ProtectionExplorer::defaultScrubLadder(0),
              (std::vector<Cycle>{1000, 10000, 100000}));
    EXPECT_EQ(ProtectionExplorer::defaultScrubLadder(20),
              (std::vector<Cycle>{16, 20, 200}));
    auto top = ProtectionExplorer::defaultScrubLadder(Cycle{1} << 30);
    EXPECT_EQ(top.back(), Cycle{1} << 30);
    EXPECT_EQ(top.size(), 2u);

    // The human-readable table lists exactly the frontier.
    auto result = explorer.exploreBeam(pool, syntheticOptions(1));
    auto tbl = result.table();
    for (auto f : result.frontier)
        EXPECT_NE(tbl.find(result.points[f].label), std::string::npos)
            << "frontier point missing from table: "
            << result.points[f].label;
}

// ROADMAP item 4 tripwire: the L2 capacity-pricing caveat fires exactly
// once, exactly when L2 AVF tracking is on AND some candidate assigns
// protection to L2Data or L2Tag.
TEST(BeamProperties, L2PricingCaveatFiresExactlyWhenL2IsPricedUnderTracking)
{
    auto countWarnings = [](const ExplorationResult &r) {
        std::size_t n = 0;
        for (const auto &w : r.warnings)
            if (w == l2PricingWarning)
                ++n;
        return n;
    };
    auto exploreWith = [&](bool track_l2, unsigned max_structures) {
        auto s = smallSetup();
        s.cfg.avf.trackL2Avf = track_l2;
        ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
        CampaignRunner pool(2);
        BeamOptions opt = syntheticOptions(3);
        opt.maxStructures = max_structures;
        opt.scrubLadder = {4096};
        return explorer.exploreBeam(pool, opt);
    };

    // Tracking on, search deep enough to reach the L2 arrays (they rank
    // last in the synthetic space): candidates protect L2, caveat fires
    // once despite many L2-protecting candidates.
    auto fired = exploreWith(/*track_l2=*/true, /*max_structures=*/10);
    ASSERT_EQ(countWarnings(fired), 1u);
    EXPECT_NE(std::find(fired.priority.begin(), fired.priority.end(),
                        HwStruct::L2Data),
              fired.priority.end());
    bool protects_l2 = false;
    for (const auto &p : fired.points)
        protects_l2 =
            protects_l2 ||
            p.protection.schemeFor(HwStruct::L2Data) != ProtScheme::None ||
            p.protection.schemeFor(HwStruct::L2Tag) != ProtScheme::None;
    EXPECT_TRUE(protects_l2);
    // The caveat reaches every machine-readable output.
    EXPECT_NE(fired.csv().find(std::string("# warning: ") +
                               l2PricingWarning),
              std::string::npos);
    EXPECT_NE(fired.json().find("trackL2Avf"), std::string::npos);

    // Tracking on but the search never reaches the L2 arrays: silent.
    auto shallow = exploreWith(/*track_l2=*/true, /*max_structures=*/2);
    EXPECT_EQ(countWarnings(shallow), 0u);
    EXPECT_EQ(shallow.csv().find("# warning:"), std::string::npos);

    // Tracking off: L2 is not even a ranked hotspot, so no candidate can
    // protect it and the caveat must not fire.
    auto untracked = exploreWith(/*track_l2=*/false, /*max_structures=*/10);
    EXPECT_EQ(countWarnings(untracked), 0u);
    EXPECT_EQ(std::find(untracked.priority.begin(),
                        untracked.priority.end(), HwStruct::L2Data),
              untracked.priority.end());

    // The prefix-sweep preset shares the tripwire.
    auto s = smallSetup();
    s.cfg.avf.trackL2Avf = true;
    ProtectionExplorer prefix(s.cfg, s.mix, kBudget);
    CampaignRunner pool(2);
    auto swept =
        prefix.exploreBeam(pool, ProtectionExplorer::prefixSweep(10000, 10));
    EXPECT_EQ(countWarnings(swept), 1u);
}

// The real simulator end-to-end: a tiny beam on a 2-context mix upholds
// the overlay invariants and reports a sound frontier.
TEST(BeamProperties, RealSimulatorSmallBeam)
{
    auto s = smallSetup();
    ProtectionExplorer explorer(s.cfg, s.mix, kBudget);
    CampaignRunner pool(2);

    BeamOptions opt;
    opt.beamWidth = 2;
    opt.generations = 2;
    opt.maxStructures = 3;
    opt.scrubLadder = {5000};
    auto result = explorer.exploreBeam(pool, opt);

    ASSERT_FALSE(result.points.empty());
    EXPECT_EQ(result.points[0].label, "none");
    ASSERT_FALSE(result.frontier.empty());
    // The unprotected point is non-dominated (zero overhead).
    EXPECT_NE(std::find(result.frontier.begin(), result.frontier.end(),
                        std::size_t{0}),
              result.frontier.end());

    for (const auto &p : result.points) {
        SCOPED_TRACE(p.label);
        // The overlay never perturbs timing.
        EXPECT_EQ(p.rawSer, result.points[0].rawSer);
        EXPECT_EQ(p.ipc, result.points[0].ipc);
        EXPECT_LE(p.residualSer, p.rawSer);
        if (p.protection.any()) {
            EXPECT_LT(p.residualSer, p.rawSer);
        }
    }
    for (auto f : result.frontier)
        for (const auto &p : result.points)
            EXPECT_FALSE(
                ProtectionExplorer::dominates(p, result.points[f]))
                << p.label << " dominates " << result.points[f].label;
    // Mixed (multi-scheme) assignments were actually explored.
    bool mixed = false;
    for (const auto &p : result.points) {
        std::set<ProtScheme> schemes;
        for (std::size_t i = 0; i < numHwStructs; ++i) {
            auto sc = p.protection.schemeFor(static_cast<HwStruct>(i));
            if (sc != ProtScheme::None)
                schemes.insert(sc);
        }
        mixed = mixed || schemes.size() > 1;
    }
    EXPECT_TRUE(mixed);
}

} // namespace
} // namespace smtavf
