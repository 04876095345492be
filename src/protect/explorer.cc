#include "protect/explorer.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "base/logging.hh"
#include "base/table.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace smtavf
{

const char *const l2PricingWarning =
    "L2 AVF is tracked per line only (avf.trackL2Avf) while L2 "
    "protection is priced from the full configured capacity "
    "(mem.l2.sizeBytes); L2 area/energy overheads are unvalidated "
    "upper bounds";

const char *
beamActionName(BeamTraceEvent::Action a)
{
    switch (a) {
      case BeamTraceEvent::Action::Evaluated: return "evaluated";
      case BeamTraceEvent::Action::Pruned: return "pruned";
      case BeamTraceEvent::Action::BudgetSkipped: return "budget";
      default: return "unknown";
    }
}

namespace
{

std::string
fixed6(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

std::string
shortest(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

/** Hotspot ranking: tracked structures by raw AVF, descending. */
std::vector<HwStruct>
rankedHotspots(const MachineConfig &cfg, const AvfReport &avf)
{
    std::vector<HwStruct> out;
    for (auto s : AvfReport::figureStructs())
        if (avf.avf(s) > 0.0)
            out.push_back(s);
    if (cfg.avf.trackL2Avf)
        for (auto s : {HwStruct::L2Data, HwStruct::L2Tag})
            if (avf.avf(s) > 0.0)
                out.push_back(s);
    // Stable sort keeps the figure order as the deterministic tie-break.
    std::stable_sort(out.begin(), out.end(), [&](HwStruct a, HwStruct b) {
        return avf.avf(a) > avf.avf(b);
    });
    return out;
}

/** The L2 pricing caveat, emitted once per exploration. */
void
maybeWarnL2(ExplorationResult &result, const MachineConfig &cfg,
            const ProtectionConfig &p)
{
    if (!cfg.avf.trackL2Avf)
        return;
    if (p.schemeFor(HwStruct::L2Data) == ProtScheme::None &&
        p.schemeFor(HwStruct::L2Tag) == ProtScheme::None)
        return;
    for (const auto &w : result.warnings)
        if (w == l2PricingWarning)
            return;
    result.warnings.push_back(l2PricingWarning);
}

/** One (scheme, scrub rung) the search can assign to a structure. */
struct SchemeVariant
{
    ProtScheme scheme;
    Cycle interval; ///< only meaningful for SecdedScrub
};

std::vector<SchemeVariant>
schemeVariants(const std::vector<Cycle> &ladder)
{
    std::vector<SchemeVariant> v = {{ProtScheme::None, 0},
                                    {ProtScheme::Parity, 0},
                                    {ProtScheme::Secded, 0}};
    for (auto rung : ladder)
        v.push_back({ProtScheme::SecdedScrub, rung});
    return v;
}

void
applyVariant(ProtectionConfig &p, HwStruct s, const SchemeVariant &v)
{
    if (v.scheme == ProtScheme::SecdedScrub) {
        p.assignScrub(s, v.interval);
    } else {
        p.assign(s, v.scheme);
        p.scrubOverride[static_cast<std::size_t>(s)] = 0;
    }
}

bool
hasVariant(const ProtectionConfig &p, HwStruct s, const SchemeVariant &v)
{
    if (p.schemeFor(s) != v.scheme)
        return false;
    return v.scheme != ProtScheme::SecdedScrub ||
           p.scrubIntervalFor(s) == v.interval;
}

} // namespace

std::string
ExplorationResult::csv() const
{
    std::ostringstream os;
    os << "# smtavf exploration\n";
    os << "# mode=beam\n";
    os << "# mix=" << mixName << '\n';
    os << "# policy=" << policyName << '\n';
    os << "# evaluations=" << evaluations << '\n';
    os << "# journal_hits=" << journalHits << '\n';
    os << "# pruned=" << prunedCount << '\n';
    for (const auto &w : warnings)
        os << "# warning: " << w << '\n';
    os << "label,assignment,ipc,raw_ser,residual_ser,area_overhead,"
          "energy_overhead,generation,pareto\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ProtectionPoint &p = points[i];
        bool on = std::find(frontier.begin(), frontier.end(), i) !=
                  frontier.end();
        std::string assignment = p.protection.str();
        for (char &c : assignment)
            if (c == ',')
                c = ';';
        os << p.label << ',' << assignment << ',' << fixed6(p.ipc) << ','
           << fixed6(p.rawSer) << ',' << fixed6(p.residualSer) << ','
           << fixed6(p.areaOverhead) << ',' << fixed6(p.energyOverhead)
           << ',' << p.generation << ',' << (on ? 1 : 0) << '\n';
    }
    return os.str();
}

std::string
ExplorationResult::json() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"mode\": \"beam\",\n";
    os << "  \"mix\": " << jsonStr(mixName) << ",\n";
    os << "  \"policy\": " << jsonStr(policyName) << ",\n";
    os << "  \"evaluations\": " << evaluations << ",\n";
    os << "  \"journal_hits\": " << journalHits << ",\n";
    os << "  \"pruned\": " << prunedCount << ",\n";
    os << "  \"warnings\": [";
    for (std::size_t i = 0; i < warnings.size(); ++i)
        os << (i ? ", " : "") << jsonStr(warnings[i]);
    os << "],\n";
    os << "  \"priority\": [";
    for (std::size_t i = 0; i < priority.size(); ++i)
        os << (i ? ", " : "") << jsonStr(hwStructName(priority[i]));
    os << "],\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ProtectionPoint &p = points[i];
        bool on = std::find(frontier.begin(), frontier.end(), i) !=
                  frontier.end();
        os << "    {\"label\": " << jsonStr(p.label)
           << ", \"assignment\": " << jsonStr(p.protection.str())
           << ", \"ipc\": " << shortest(p.ipc)
           << ", \"raw_ser\": " << shortest(p.rawSer)
           << ", \"residual_ser\": " << shortest(p.residualSer)
           << ", \"area_overhead\": " << shortest(p.areaOverhead)
           << ", \"energy_overhead\": " << shortest(p.energyOverhead)
           << ", \"generation\": " << p.generation
           << ", \"from_journal\": " << (p.fromJournal ? "true" : "false")
           << ", \"pareto\": " << (on ? "true" : "false") << "}"
           << (i + 1 < points.size() ? "," : "") << '\n';
    }
    os << "  ],\n";
    os << "  \"frontier\": [";
    for (std::size_t i = 0; i < frontier.size(); ++i)
        os << (i ? ", " : "") << frontier[i];
    os << "],\n";
    os << "  \"trace\": [\n";
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const BeamTraceEvent &t = trace[i];
        os << "    {\"generation\": " << t.generation
           << ", \"action\": " << jsonStr(beamActionName(t.action))
           << ", \"assignment\": " << jsonStr(t.assignment) << "}"
           << (i + 1 < trace.size() ? "," : "") << '\n';
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

std::string
ExplorationResult::table() const
{
    TextTable t({"assignment", "IPC", "raw SER", "residual SER", "area",
                 "energy"});
    for (auto i : frontier) {
        const ProtectionPoint &p = points[i];
        t.addRow({p.label, TextTable::num(p.ipc, 3),
                  TextTable::pct(p.rawSer, 2),
                  TextTable::pct(p.residualSer, 2),
                  TextTable::pct(p.areaOverhead, 2),
                  TextTable::pct(p.energyOverhead, 2)});
    }
    return t.str();
}

ProtectionExplorer::ProtectionExplorer(MachineConfig base, WorkloadMix mix,
                                       std::uint64_t budget)
    : base_(std::move(base)), mix_(std::move(mix)), budget_(budget)
{
    base_.protection = ProtectionConfig{}; // candidates replace it
}

BeamOptions
ProtectionExplorer::prefixSweep(Cycle scrub_interval, unsigned depth)
{
    BeamOptions bo;
    bo.generations = 0;
    bo.maxStructures = depth;
    bo.scrubLadder = {scrub_interval};
    return bo;
}

std::vector<Cycle>
ProtectionExplorer::defaultScrubLadder(Cycle interval)
{
    if (interval == 0)
        interval = 10000;
    constexpr Cycle lo = 16;
    constexpr Cycle hi = Cycle{1} << 30;
    auto clamp = [](std::uint64_t v) {
        return static_cast<Cycle>(v < lo ? lo : (v > hi ? hi : v));
    };
    std::vector<Cycle> ladder = {clamp(interval / 10), clamp(interval),
                                 clamp(std::uint64_t{interval} * 10)};
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
    return ladder;
}

std::vector<ProtectionConfig>
ProtectionExplorer::allAssignments(const std::vector<HwStruct> &structs,
                                   const std::vector<Cycle> &ladder)
{
    auto variants = schemeVariants(ladder);
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < structs.size(); ++i) {
        total *= variants.size();
        if (total > 1'000'000)
            SMTAVF_FATAL("exhaustive space too large: ", variants.size(),
                         "^", structs.size(), " assignments");
    }
    std::vector<ProtectionConfig> out;
    out.reserve(total);
    std::vector<std::size_t> odo(structs.size(), 0);
    for (std::uint64_t n = 0; n < total; ++n) {
        ProtectionConfig p;
        for (std::size_t i = 0; i < structs.size(); ++i)
            applyVariant(p, structs[i], variants[odo[i]]);
        out.push_back(std::move(p));
        for (std::size_t i = 0; i < odo.size(); ++i) {
            if (++odo[i] < variants.size())
                break;
            odo[i] = 0;
        }
    }
    return out;
}

std::vector<ProtectionConfig>
ProtectionExplorer::neighbors(const ProtectionConfig &base,
                              const std::vector<HwStruct> &structs,
                              const std::vector<Cycle> &ladder)
{
    auto variants = schemeVariants(ladder);
    std::vector<ProtectionConfig> out;
    for (auto s : structs) {
        for (const auto &v : variants) {
            if (hasVariant(base, s, v))
                continue;
            ProtectionConfig p = base;
            applyVariant(p, s, v);
            out.push_back(std::move(p));
        }
    }
    return out;
}

double
ProtectionExplorer::optimisticResidualSer(
    const AvfReport &baseline,
    const std::array<std::uint64_t, numHwStructs> &bits,
    const ProtectionConfig &p)
{
    double weighted = 0.0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        total += bits[i];
        double frac;
        switch (p.schemeFor(s)) {
          case ProtScheme::Parity:
            frac = static_cast<double>(256 - parityCoverage256) / 256.0;
            break;
          case ProtScheme::Secded:
            frac = static_cast<double>(256 - secdedCoverage256) / 256.0;
            break;
          case ProtScheme::SecdedScrub:
            frac = 0.0; // scrubbing can cover everything
            break;
          default:
            frac = 1.0;
            break;
        }
        weighted += baseline.avf(s) * frac * static_cast<double>(bits[i]);
    }
    return total ? weighted / static_cast<double>(total) : 0.0;
}

bool
ProtectionExplorer::dominates(const ProtectionPoint &a,
                              const ProtectionPoint &b)
{
    if (a.residualSer > b.residualSer || a.areaOverhead > b.areaOverhead ||
        a.energyOverhead > b.energyOverhead || a.ipc < b.ipc)
        return false;
    return a.residualSer < b.residualSer || a.areaOverhead < b.areaOverhead ||
           a.energyOverhead < b.energyOverhead || a.ipc > b.ipc;
}

std::vector<std::size_t>
ProtectionExplorer::paretoFrontier(const std::vector<ProtectionPoint> &points)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j)
            if (j != i && dominates(points[j], points[i]))
                dominated = true;
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

ExplorationResult
ProtectionExplorer::exploreBeam(CampaignRunner &pool,
                                const BeamOptions &opt) const
{
    if (opt.beamWidth == 0)
        SMTAVF_FATAL("beam search needs --beam-width >= 1");
    if (opt.maxStructures == 0)
        SMTAVF_FATAL("beam search needs at least one searchable structure");
    std::vector<Cycle> ladder =
        !opt.scrubLadder.empty()
            ? opt.scrubLadder
            : defaultScrubLadder(base_.protection.scrubInterval);
    for (auto rung : ladder)
        if (rung == 0 || rung > (Cycle{1} << 30))
            SMTAVF_FATAL("scrub ladder rung out of range: ", rung);

    const auto bits = structureBitCapacities(base_);

    CampaignOptions copt;
    copt.journalPath = opt.journalPath;
    copt.resume = opt.resume;
    copt.runFn = opt.runFn;

    // Worker reuse (copt.reuseWorkers, on by default) is at its best
    // here: protection assignments are excluded from the reset
    // compatibility shape, so every candidate in a generation reset()s
    // onto the same worker-local simulator instead of constructing a
    // fresh one — the search's Simulator setup cost collapses to one
    // construction per pool worker.

    // Shared warmup: simulate the warmup prefix exactly once, up front,
    // and let every runTolerant() batch (baseline, each generation)
    // restore the capture. The checkpoint fingerprint excludes the
    // protection assignment, so one capture serves the whole search —
    // except under PRAT, whose throttle makes protection timing-
    // affecting: a capture would fit only its own candidate, so fall
    // back to per-run warmup (correct, just slower) and say so once.
    Checkpoint warm_ck;
    const bool prat = base_.fetchPolicy == FetchPolicyKind::PRat;
    if (opt.warmup > 0 && opt.sharedWarmup && !opt.runFn && !prat) {
        Simulator warm(base_, mix_);
        warm_ck = warm.captureWarmupCheckpoint(opt.warmup);
        copt.sharedWarmup = true;
        copt.warmupCheckpoint = &warm_ck;
    }

    auto runBatch = [&](const std::vector<Experiment> &exps) {
        auto report = runTolerant(pool, exps, copt);
        if (!report.allOk())
            SMTAVF_FATAL("beam search candidate failed:\n",
                         report.failureReport());
        return report;
    };

    // Baseline: hotspot ranking, raw-SER anchor, and the first point.
    Experiment baseline;
    baseline.label = mix_.name + "/none";
    baseline.cfg = base_;
    baseline.mix = mix_;
    baseline.budget = budget_;
    baseline.warmup = opt.warmup;
    auto base_report = runBatch({baseline});
    const RunOutcome &base_out = base_report.outcomes.front();
    const SimResult &base_run = base_out.result;

    ExplorationResult result;
    result.mixName = base_run.mixName;
    result.policyName = base_run.policyName;
    result.priority = rankedHotspots(base_, base_run.avf);
    if (prat && opt.warmup > 0 && opt.sharedWarmup)
        result.warnings.push_back(
            "PRAT throttling is protection-sensitive: warmup checkpoints "
            "cannot be shared across candidates; each evaluation warms up "
            "individually");

    std::vector<HwStruct> search(
        result.priority.begin(),
        result.priority.begin() +
            std::min<std::size_t>(opt.maxStructures,
                                  result.priority.size()));
    if (search.empty())
        SMTAVF_FATAL("beam search found no vulnerable structure to protect");

    auto to_point = [&](const ProtectionConfig &prot, const SimResult &r,
                        unsigned generation, bool from_journal) {
        ProtectionPoint p;
        p.label = prot.str();
        p.protection = prot;
        p.rawSer = serProxy(r.avf, bits, /*residual=*/false);
        p.residualSer = serProxy(r.avf, bits, /*residual=*/true);
        MachineConfig cfg = base_;
        cfg.protection = prot;
        auto cost = protectionCost(cfg);
        p.areaOverhead = cost.areaOverhead;
        p.energyOverhead = cost.energyOverhead;
        p.ipc = r.ipc;
        p.generation = generation;
        p.fromJournal = from_journal;
        maybeWarnL2(result, base_, prot);
        return p;
    };

    result.points.push_back(
        to_point(ProtectionConfig{}, base_run, 0, base_out.fromJournal));
    const double base_raw = result.points.front().rawSer;

    // Scalar ranking for beam selection only (the reported frontier is
    // the full Pareto set, not this projection): normalized residual SER
    // plus the mean of the two overheads, ties broken by the canonical
    // assignment string.
    auto score = [&](double residual, double area, double energy) {
        double rel = base_raw > 0.0 ? residual / base_raw : 0.0;
        return rel + 0.5 * (area + energy);
    };

    /** Expansion-pool node: evaluated or pruned-but-reachable. */
    struct Node
    {
        std::string key; ///< canonical assignment string
        ProtectionConfig cfg;
        double score;
    };
    std::vector<Node> nodes;
    nodes.push_back({"none", ProtectionConfig{},
                     score(result.points[0].residualSer, 0.0, 0.0)});

    auto fingerprintOf = [&](const ProtectionConfig &prot) {
        Experiment e = baseline;
        e.cfg.protection = prot;
        return experimentFingerprint(e);
    };
    std::unordered_set<std::uint64_t> seen = {fingerprintOf({})};

    /** Candidates of one generation, deduped and canonically ordered. */
    auto canonicalize = [&](std::vector<ProtectionConfig> &configs) {
        std::vector<std::pair<std::string, ProtectionConfig>> keyed;
        std::unordered_set<std::uint64_t> batch_seen;
        for (auto &c : configs) {
            auto fp = fingerprintOf(c);
            if (seen.count(fp) || !batch_seen.insert(fp).second)
                continue;
            keyed.emplace_back(c.str(), std::move(c));
        }
        std::sort(keyed.begin(), keyed.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return keyed;
    };

    // Process one generation's candidates: prune, budget-check, evaluate
    // the survivors as one campaign batch, grow points and the pool.
    auto runGeneration = [&](unsigned gen,
                             std::vector<ProtectionConfig> configs) {
        auto keyed = canonicalize(configs);
        std::vector<Experiment> batch;
        std::vector<std::size_t> batch_gen; // index into keyed
        for (std::size_t i = 0; i < keyed.size(); ++i) {
            const auto &[key, prot] = keyed[i];
            seen.insert(fingerprintOf(prot));

            MachineConfig cfg = base_;
            cfg.protection = prot;
            auto cost = protectionCost(cfg);
            ProtectionPoint optimistic;
            optimistic.residualSer =
                optimisticResidualSer(base_run.avf, bits, prot) *
                (1.0 - 1e-9); // margin for double rounding in the bound
            optimistic.areaOverhead = cost.areaOverhead;
            optimistic.energyOverhead = cost.energyOverhead;
            optimistic.ipc = result.points[0].ipc;

            // The optimistic bound derives every candidate's best-case
            // residual SER from the *baseline* run's raw AVF — sound only
            // while protection cannot change what a run executes. Under
            // PRAT it can (the throttle reads the assignment), so the
            // bound proves nothing and pruning is disabled: every
            // candidate is evaluated for real.
            bool pruned = false;
            if (!prat)
                for (const auto &p : result.points)
                    if (dominates(p, optimistic)) {
                        pruned = true;
                        break;
                    }
            if (pruned) {
                ++result.prunedCount;
                result.trace.push_back(
                    {gen, key, BeamTraceEvent::Action::Pruned});
                // Pruned nodes stay expandable (scored optimistically) so
                // the search can reach frontier corners through them.
                nodes.push_back(
                    {key, prot,
                     score(optimistic.residualSer, cost.areaOverhead,
                           cost.energyOverhead)});
                continue;
            }
            if (opt.evalBudget && result.evaluations >= opt.evalBudget) {
                result.trace.push_back(
                    {gen, key, BeamTraceEvent::Action::BudgetSkipped});
                continue;
            }
            ++result.evaluations;
            result.trace.push_back(
                {gen, key, BeamTraceEvent::Action::Evaluated});
            Experiment e = baseline;
            e.cfg.protection = prot;
            e.label = mix_.name + "/" + key;
            batch.push_back(std::move(e));
            batch_gen.push_back(i);
        }
        if (batch.empty())
            return;
        auto report = runBatch(batch);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const RunOutcome &out = report.outcomes[i];
            if (out.fromJournal)
                ++result.journalHits;
            auto p = to_point(keyed[batch_gen[i]].second, out.result, gen,
                              out.fromJournal);
            nodes.push_back({p.label, p.protection,
                             score(p.residualSer, p.areaOverhead,
                                   p.energyOverhead)});
            result.points.push_back(std::move(p));
        }
    };

    // Generation 0: seed from the hotspot ranking — the prefix-sweep
    // candidates, with scrubbing pinned to the ladder's middle rung
    // (other rungs are one neighbor move away).
    Cycle mid = ladder[ladder.size() / 2];
    std::vector<ProtectionConfig> seeds;
    for (auto scheme : {ProtScheme::Parity, ProtScheme::Secded,
                        ProtScheme::SecdedScrub}) {
        for (std::size_t k = 1; k <= search.size(); ++k) {
            ProtectionConfig p;
            for (std::size_t i = 0; i < k; ++i)
                applyVariant(p, search[i],
                             scheme == ProtScheme::SecdedScrub
                                 ? SchemeVariant{scheme, mid}
                                 : SchemeVariant{scheme, 0});
            seeds.push_back(std::move(p));
        }
    }
    runGeneration(0, std::move(seeds));

    // Generations 1..N: expand the beam by single-structure moves.
    for (unsigned gen = 1; gen <= opt.generations; ++gen) {
        if (opt.evalBudget && result.evaluations >= opt.evalBudget)
            break;
        std::vector<Node> beam = nodes;
        std::sort(beam.begin(), beam.end(), [](const Node &a, const Node &b) {
            return a.score != b.score ? a.score < b.score : a.key < b.key;
        });
        if (beam.size() > opt.beamWidth)
            beam.resize(opt.beamWidth);

        std::vector<ProtectionConfig> configs;
        for (const auto &n : beam)
            for (auto &c : neighbors(n.cfg, search, ladder))
                configs.push_back(std::move(c));
        std::size_t before = result.trace.size();
        runGeneration(gen, std::move(configs));
        if (result.trace.size() == before)
            break; // every neighbor already seen: the space is exhausted
    }

    result.frontier = paretoFrontier(result.points);

    if (!opt.journalPath.empty()) {
        RunJournal journal(opt.journalPath);
        std::ostringstream head;
        head << "beam-trace v1 mix=" << mix_.name
             << " policy=" << result.policyName
             << " width=" << opt.beamWidth
             << " generations=" << opt.generations
             << " budget=" << opt.evalBudget
             << " structures=" << search.size();
        journal.comment(head.str());
        for (const auto &t : result.trace) {
            std::ostringstream line;
            line << "beam g=" << t.generation << ' '
                 << beamActionName(t.action) << ' ' << t.assignment;
            journal.comment(line.str());
        }
        std::ostringstream tail;
        tail << "beam-result evaluations=" << result.evaluations
             << " journal_hits=" << result.journalHits
             << " pruned=" << result.prunedCount
             << " frontier=" << result.frontier.size();
        journal.comment(tail.str());
    }
    return result;
}

} // namespace smtavf
