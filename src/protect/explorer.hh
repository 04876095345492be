/**
 * @file
 * Reliability-cost exploration: search heterogeneous protection
 * assignments over the parallel campaign runner and report the Pareto
 * frontier of residual soft-error rate vs. area/energy overhead vs. IPC.
 *
 * The search is a beam over per-structure scheme vectors. Its generation
 * 0 is the prefix sweep: parity, SECDED and SECDED+scrub each applied to
 * the top-1..k hotspots of the paper's Section-4.1 raw-AVF ranking. Each
 * later generation expands the best candidates by single-structure
 * upgrades/downgrades (including a small per-structure scrub-interval
 * ladder), prunes provably dominated candidates with the cost model
 * *before* simulating, and evaluates the survivors as one campaign
 * batch. `protect --explore` runs generation 0 alone at one scrub
 * interval (prefixSweep()); `--explore=beam` runs the full search.
 *
 * Determinism argument (tests/test_explorer_properties.cc): every
 * candidate is an independent Experiment keyed by its journal fingerprint
 * (sim/journal.hh); expansion output is deduplicated by fingerprint and
 * canonically ordered by assignment string before evaluation, so the
 * search trajectory is a pure function of (config, mix, options) — never
 * of worker count, evaluation order, or how much of a previous run's
 * journal survives. The memoized candidate cache means a restarted or
 * resumed search replays journaled results instead of re-simulating a
 * seen assignment, and the evaluation *budget* counts submissions (journal
 * hits included) so a resume explores exactly the original trajectory.
 *
 * Pruning is safe by construction: a candidate is discarded only when an
 * already-evaluated point weakly dominates its *optimistic* point — exact
 * area/energy from the cost model plus a residual-SER lower bound from
 * the baseline's raw AVF and each scheme's coverage ceiling. Since the
 * true residual can only be higher, a pruned candidate can never have
 * been on the frontier (property (d) in the test suite).
 */

#ifndef SMTAVF_PROTECT_EXPLORER_HH
#define SMTAVF_PROTECT_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "protect/cost.hh"
#include "protect/scheme.hh"
#include "sim/campaign.hh"

namespace smtavf
{

/** One evaluated protection assignment. */
struct ProtectionPoint
{
    std::string label;           ///< canonical assignment string
    ProtectionConfig protection;
    double rawSer = 0.0;         ///< bit-weighted raw AVF (FIT proxy)
    double residualSer = 0.0;    ///< bit-weighted residual AVF
    double areaOverhead = 0.0;
    double energyOverhead = 0.0;
    double ipc = 0.0;
    unsigned generation = 0;     ///< beam generation that evaluated it
    bool fromJournal = false;    ///< satisfied from the resume journal
};

/** One decision the beam search made about a generated candidate. */
struct BeamTraceEvent
{
    enum class Action : std::uint8_t
    {
        Evaluated,    ///< simulated (or replayed from the journal)
        Pruned,       ///< cost-model dominance proof, never simulated
        BudgetSkipped ///< evaluation budget exhausted, never simulated
    };
    unsigned generation = 0;
    std::string assignment; ///< canonical ProtectionConfig::str()
    Action action = Action::Evaluated;
};

/** Short lower-case action name ("evaluated", "pruned", "budget"). */
const char *beamActionName(BeamTraceEvent::Action a);

/**
 * The L2 pricing caveat (ROADMAP): `avf.trackL2Avf` measures L2 AVF at
 * per-line granularity only, while the cost model prices L2 protection
 * from the full configured capacity — so L2 overheads are unvalidated
 * upper bounds. Emitted once per exploration, exactly when L2 tracking
 * is on and a candidate assigns protection to L2Data or L2Tag.
 */
extern const char *const l2PricingWarning;

/** Everything one exploration reports. */
struct ExplorationResult
{
    std::string mixName;
    std::string policyName;

    /** Hotspot ranking: figure structures by raw AVF, descending. */
    std::vector<HwStruct> priority;
    /** All evaluated points in submission order (index 0 = unprotected). */
    std::vector<ProtectionPoint> points;
    /** Indices of non-dominated points, in submission order. */
    std::vector<std::size_t> frontier;

    /** One-time caveats (e.g. the L2 capacity-pricing tripwire). */
    std::vector<std::string> warnings;
    /** Search decision log, in decision order. */
    std::vector<BeamTraceEvent> trace;

    std::uint64_t evaluations = 0;  ///< candidates submitted (journal incl.)
    std::uint64_t journalHits = 0;  ///< of those, replayed without simulating
    std::uint64_t prunedCount = 0;  ///< discarded by the cost-model proof

    /**
     * Machine-readable dump: `# key=value` metadata and `# warning:`
     * lines, then one row per point (frontier flagged). Comment lines
     * keep the data rows parseable by any CSV reader that skips '#'.
     */
    std::string csv() const;

    /** Full result as JSON (points, frontier, warnings, beam trace). */
    std::string json() const;

    /** Human-readable frontier table. */
    std::string table() const;
};

/** Knobs of a beam-search exploration (defaults are sensible). */
struct BeamOptions
{
    /** Candidates kept for expansion each generation. */
    unsigned beamWidth = 8;
    /** Expansion rounds after the seeded generation 0. */
    unsigned generations = 3;
    /**
     * Max candidate evaluations, baseline excluded; journal replays count
     * so a resumed search walks the original trajectory. 0 = unlimited.
     */
    std::uint64_t evalBudget = 0;
    /** Search only the top-N hotspots of the ranking. */
    unsigned maxStructures = 6;
    /**
     * Per-structure scrub-interval ladder for SecdedScrub candidates;
     * empty = defaultScrubLadder(10000) (the base protection is dropped).
     */
    std::vector<Cycle> scrubLadder;
    /** Persist evaluated runs + search trace here ("" = no journal). */
    std::string journalPath;
    /** Replay journaled candidates instead of re-simulating them. */
    bool resume = false;
    /**
     * Warm up every evaluation (baseline included) by this many
     * instructions before measuring; see Experiment::warmup. 0 = off.
     */
    std::uint64_t warmup = 0;
    /**
     * Simulate the warmup once, capture it as a checkpoint, and restore
     * it for the baseline and every candidate instead of re-warming per
     * run — valid because a warmup checkpoint's fingerprint excludes the
     * protection assignment (it is an accounting overlay that never
     * perturbs timing). The frontier is bit-identical to the unshared
     * path; only the simulated-instruction count drops (asserted by
     * bench_ckpt_warmup). Ignored when warmup == 0 or runFn is set.
     */
    bool sharedWarmup = false;
    /** Test seam: replaces runExperiment() (see CampaignOptions::runFn). */
    std::function<SimResult(const Experiment &, std::size_t)> runFn;
};

/** Search of heterogeneous protection assignments for one workload. */
class ProtectionExplorer
{
  public:
    /**
     * @param base   configuration the search perturbs (its own protection
     *               assignment is ignored; candidates replace it)
     * @param mix    workload to evaluate under
     * @param budget per-run instruction budget (0 = default)
     */
    ProtectionExplorer(MachineConfig base, WorkloadMix mix,
                       std::uint64_t budget = 0);

    /** Beam search over per-structure scheme vectors; deterministic. */
    ExplorationResult exploreBeam(CampaignRunner &pool,
                                  const BeamOptions &opt = {}) const;

    /**
     * The prefix sweep as a search preset: generation 0 only, over the
     * top @p depth hotspots, with one scrub rung at @p scrub_interval.
     * Its candidates are each scheme applied to the top-1..depth
     * hotspots; evaluated plus pruned ones number 3 x min(depth,
     * hotspots). This is what `protect --explore` runs.
     */
    static BeamOptions prefixSweep(Cycle scrub_interval = 10000,
                                   unsigned depth = 4);

    /**
     * Every assignment of {none, parity, secded, secded+scrub@ladder...}
     * to @p structs — the exhaustive space the property tests compare
     * beam search against. Size (3 + |ladder|)^|structs|; fatal when that
     * exceeds 1M candidates.
     */
    static std::vector<ProtectionConfig>
    allAssignments(const std::vector<HwStruct> &structs,
                   const std::vector<Cycle> &ladder);

    /**
     * Single-structure neighbours of @p base: every upgrade/downgrade of
     * one structure in @p structs to another scheme (scrub variants per
     * ladder rung). Excludes @p base itself.
     */
    static std::vector<ProtectionConfig>
    neighbors(const ProtectionConfig &base,
              const std::vector<HwStruct> &structs,
              const std::vector<Cycle> &ladder);

    /** {interval/10, interval, interval*10} clamped to [16, 2^30]. */
    static std::vector<Cycle> defaultScrubLadder(Cycle interval);

    /**
     * Provable lower bound on a candidate's residual SER, from the
     * baseline report's raw AVF and each scheme's coverage ceiling
     * (parity can cover at most 224/256 of exposure, SECDED 255/256,
     * scrubbing everything). The true residual of the candidate is never
     * below this, which is what makes cost-model pruning safe — given
     * the premise that raw AVF is candidate-invariant. PRAT breaks that
     * premise (its throttle reads the assignment), so exploreBeam
     * disables pruning entirely under PRAT.
     */
    static double
    optimisticResidualSer(const AvfReport &baseline,
                          const std::array<std::uint64_t, numHwStructs> &bits,
                          const ProtectionConfig &p);

    /**
     * Indices of the non-dominated points: no other point is at least as
     * good on residual SER, area, energy and IPC and strictly better on
     * one of them.
     */
    static std::vector<std::size_t>
    paretoFrontier(const std::vector<ProtectionPoint> &points);

    /** Weak Pareto dominance of a over b (exposed for the test harness). */
    static bool dominates(const ProtectionPoint &a, const ProtectionPoint &b);

  private:
    MachineConfig base_;
    WorkloadMix mix_;
    std::uint64_t budget_;
};

} // namespace smtavf

#endif // SMTAVF_PROTECT_EXPLORER_HH
