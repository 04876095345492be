/**
 * @file
 * Parallel experiment campaigns with deterministic replay.
 *
 * Every figure harness and sweep runs mutually independent simulations —
 * one (config, mix, policy, budget, seed) tuple per run — so a campaign
 * can fan them out over a fixed worker pool for a pure wall-clock win.
 * Determinism is preserved by construction: each run owns an isolated,
 * seed-derived RNG stream (the Simulator already seeds its generators
 * from MachineConfig::seed, and splitSeed() derives per-run seeds from a
 * campaign master), results land in submission order, and no simulation
 * shares mutable state with another. A campaign therefore produces
 * bit-identical SimResults whether it runs on 1 worker, N workers, or as
 * a plain serial runMix() loop — the property tests/test_campaign.cc
 * proves differentially.
 */

#ifndef SMTAVF_SIM_CAMPAIGN_HH
#define SMTAVF_SIM_CAMPAIGN_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "avf/injection.hh"
#include "ckpt/checkpoint.hh"
#include "core/machine_config.hh"
#include "metrics/metrics.hh"
#include "sim/experiment.hh"
#include "sim/isolate.hh"
#include "workload/mixes.hh"

namespace smtavf
{

/** One unit of a campaign: everything runMix() needs, plus a label. */
struct Experiment
{
    std::string label;        ///< free-form; shown in progress lines
    MachineConfig cfg;        ///< carries the policy and the seed
    WorkloadMix mix;
    std::uint64_t budget = 0; ///< 0 = defaultBudget(mix.contexts)
    /**
     * Warm-up instructions simulated (and drained) before measurement
     * begins; stats and AVF ledger tallies cover only the post-warmup
     * window, and @ref budget counts post-warmup instructions. Folded
     * into the experiment fingerprint (together with the warmup
     * checkpoint's fingerprint) so journal resume invalidates when the
     * warmup changes. 0 = no warmup (the historical behaviour).
     */
    std::uint64_t warmup = 0;
};

/** Table-1 descriptor for (mix, policy), labelled "mix/policy". */
Experiment makeExperiment(const WorkloadMix &mix, FetchPolicyKind policy,
                          std::uint64_t budget = 0);

/** Execute one descriptor (exactly what a serial loop would run). */
SimResult runExperiment(const Experiment &e);

/**
 * Give experiment i the seed splitSeed(master, i). Runs become
 * independent draws from decorrelated streams while the whole campaign
 * stays replayable from the single master seed.
 */
void deriveSeeds(std::vector<Experiment> &exps, std::uint64_t master);

/**
 * Deterministic shard partition: keep every experiment whose index in
 * @p exps satisfies i % nshards == shard (round-robin striping, so each
 * shard gets a balanced slice of any systematic mix/policy ordering).
 * Apply AFTER deriveSeeds: seeds derive from the position in the full
 * list, so shard runs stay bit-identical to the same runs unsharded —
 * which is what makes shard journals mergeable. Fatal when nshards == 0
 * or shard >= nshards.
 */
std::vector<Experiment> shardExperiments(const std::vector<Experiment> &exps,
                                         unsigned shard, unsigned nshards);

struct RunOutcome;

/** Per-run completion notice delivered to the progress callback. */
struct CampaignProgress
{
    std::size_t index;     ///< submission-order index of the run
    std::size_t total;     ///< campaign size
    std::size_t completed; ///< runs finished so far, this one included
    double seconds;        ///< wall-clock time of this run
    const Experiment *experiment;
    const SimResult *result;   ///< null when the run did not produce one
    /** Full outcome; only set by runTolerant() campaigns. */
    const RunOutcome *outcome = nullptr;
};

/**
 * Fixed-size std::thread worker pool executing experiment campaigns.
 *
 * Workers are spawned once at construction and reused across run() and
 * forEach() calls; the pool size defaults to SMTAVF_JOBS or, when that is
 * unset, hardware_concurrency(). Results are collected in submission
 * order and are bit-identical for every pool size because each run's
 * randomness comes only from its own descriptor.
 */
class CampaignRunner
{
  public:
    using ProgressFn = std::function<void(const CampaignProgress &)>;

    /** @param jobs worker count; 0 = SMTAVF_JOBS or hardware default. */
    explicit CampaignRunner(unsigned jobs = 0);
    ~CampaignRunner();

    CampaignRunner(const CampaignRunner &) = delete;
    CampaignRunner &operator=(const CampaignRunner &) = delete;

    /** Resolve a requested job count against SMTAVF_JOBS / hardware. */
    static unsigned defaultJobs(unsigned requested = 0);

    /** Worker-pool size. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run a campaign; results in submission order, bit-identical to a
     * serial runExperiment() loop over the same descriptors. The
     * optional progress callback fires once per finished run (from
     * worker threads, serialized by the pool).
     */
    std::vector<SimResult> run(const std::vector<Experiment> &exps,
                               ProgressFn progress = nullptr);

    /**
     * Generic deterministic fan-out: invoke fn(0), ..., fn(n-1) across
     * the pool, in any order and concurrently. fn must touch only
     * per-index state. An exception thrown by fn is re-thrown here
     * (first one wins) after the batch drains.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    struct Batch;

    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_;
    std::condition_variable done_;
    Batch *batch_ = nullptr; ///< guarded by mutex_
    bool stop_ = false;      ///< guarded by mutex_
};

/**
 * Parallel drop-in for the Figure 3/4 single-thread baseline loop: one
 * runSingleThreadBaseline() replay per context of a finished SMT run,
 * each replaying exactly the instruction count that context committed.
 * Results are indexed by ThreadId.
 */
std::vector<SimResult> runSingleThreadBaselines(CampaignRunner &pool,
                                                const MachineConfig &smt_cfg,
                                                const WorkloadMix &mix,
                                                const SimResult &smt);

/**
 * Deterministic parallel fault-injection campaign: the @p trials origins
 * are drawn in trial order from one Rng(seed) stream, then adjudicated
 * by InjectionCampaign::injectAt() across the pool, so the aggregate
 * verdict counts are identical for every worker count and schedule.
 */
InjectionResult runInjection(CampaignRunner &pool,
                             const InjectionCampaign &campaign,
                             std::uint64_t trials, std::uint64_t seed);

/**
 * How one run of a fault-tolerant campaign ended.
 *
 *  - Ok: produced a SimResult (possibly replayed from the journal).
 *  - Failed: threw on every attempt with *different* messages — likely
 *    environmental; the error text of the last attempt is kept.
 *  - TimedOut: livelocked (deterministic — retrying the same seed would
 *    spin through the same window again) or never started because the
 *    campaign was cancelled or past its soft timeout.
 *  - Quarantined: failed twice in a row with the *identical* message —
 *    a deterministic bug for this exact (config, mix, seed); retrying is
 *    futile and the run is set aside for offline replay.
 */
enum class RunStatus { Ok, Failed, TimedOut, Quarantined };

/** Short lower-case name ("ok", "failed", ...). */
const char *runStatusName(RunStatus s);

/** One run's result or post-mortem; always one per submitted experiment. */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    std::string label;      ///< Experiment::label of the run
    std::uint64_t seed = 0; ///< exact seed, for offline replay
    SimResult result;       ///< valid only when status == Ok
    std::string error;      ///< last failure message (empty when Ok)
    unsigned attempts = 0;  ///< simulations actually started (0: skipped)
    bool fromJournal = false; ///< satisfied from the resume journal
    /**
     * Crash taxonomy of the *last* attempt (sim/isolate.hh): how a
     * process-isolation child died, or Oom when the run's allocation
     * failed in either mode; None otherwise.
     */
    CrashKind crash = CrashKind::None;
};

/** Knobs of a fault-tolerant campaign (all defaults = plain campaign). */
struct CampaignOptions
{
    /** Extra attempts after a non-deterministic-looking failure. */
    unsigned retries = 1;
    /** Stop dispatching new runs after this much wall clock (0 = never). */
    double softTimeoutSeconds = 0.0;
    /** Journal completed runs here ("" = no journal). */
    std::string journalPath;
    /** Replay journaled results instead of re-running them. */
    bool resume = false;
    /** Stop dispatching when set (the CLI's SIGINT flag). */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Where each run executes. Thread (default) runs in-process on the
     * pool; Process runs in forked sandboxed children (sim/isolate.hh,
     * @ref runsPerChild per child) so crashes, runaway allocations and
     * wedged runs are contained and classified instead of taking the
     * campaign down. Both modes classify failures with classifyRun(),
     * and healthy results are bit-identical across modes (hexfloat wire
     * format).
     */
    IsolateMode isolate = IsolateMode::Thread;
    /**
     * Deprecated and never read: every run builds its own Simulator.
     * Kept only because the benchmark harness (perfbench/harness) still
     * sets it; remove it with the next benchmark change.
     */
    bool reuseWorkers = true;
    /**
     * Process mode: dispatch this many consecutive runs per forked
     * child over the framed `run v3` pipe protocol, amortizing the
     * fork while keeping the sandbox; each run in the child builds its
     * own Simulator. Each run's result frames out as it completes, so
     * runs finished before a crash survive it; a death is attributed
     * to the in-flight run and only that run plus the unstarted
     * remainder re-dispatch. The hard-timeout and CPU budgets scale
     * with the batch size. 1 (the default) is a batch of one: a child
     * per run, over the same protocol and attempt loop. Values > 1
     * require process isolation.
     */
    unsigned runsPerChild = 1;
    /**
     * Process mode: SIGKILL a child past this wall-clock deadline — a
     * *hard* timeout that needs no cooperation from the run. 0 = none.
     */
    double hardTimeoutSeconds = 0.0;
    /** Process mode: per-child RLIMIT_CPU seconds (0 = inherit). */
    std::uint64_t childCpuSeconds = 0;
    /** Process mode: per-child RLIMIT_AS bytes (0 = inherit). */
    std::uint64_t childMemoryBytes = 0;
    /**
     * Base of the exponential retry backoff: attempt k reruns after
     * retryBackoffSeconds(k-1, run seed, base) — deterministic jitter per
     * run, so replays behave identically. 0 (default) retries at once.
     */
    double backoffSeconds = 0.0;
    /**
     * Thread mode: forward @ref cancel into each run's MachineConfig so
     * Simulator::run() polls it every this many cycles and unwinds with
     * CancelledError mid-run. 0 (default) keeps the poll off; excluded
     * from experiment fingerprints either way.
     */
    Cycle cancelCheckCycles = 0;
    /**
     * Test seam: replaces runExperiment(). Receives the experiment and
     * its submission index; whatever it throws is handled exactly like a
     * real simulation failure. In process mode it executes inside the
     * forked child — which makes it the chaos-injection hook: a runFn
     * that segfaults exercises the real kill/reap/classify path.
     */
    std::function<SimResult(const Experiment &, std::size_t)> runFn;
    /**
     * Shared-warmup checkpointing: when true, experiments with a nonzero
     * warmup are grouped by their warmup-checkpoint fingerprint
     * (checkpointFingerprint(), sim/journal.hh — workload + machine
     * config + seed, protection excluded), the warmup is simulated once
     * per group and captured as a checkpoint, and every run in the group
     * restores from it instead of re-simulating the warmup. Thread mode
     * restores from a shared in-memory buffer; process mode writes each
     * group checkpoint to a file under @ref checkpointDir and the forked
     * child restores from the file. Results are bit-identical to the
     * unshared path by the drain-boundary determinism argument
     * (docs/CHECKPOINT.md); only the simulated-instruction count drops.
     * Ignored when @ref runFn is set (the seam replaces execution).
     */
    bool sharedWarmup = false;
    /**
     * Process mode with sharedWarmup: directory for the per-group
     * checkpoint files ("" = the system temp directory). Files are
     * removed when the campaign completes.
     */
    std::string checkpointDir;
    /**
     * Optional pre-captured warmup checkpoint: any group whose
     * fingerprint matches this checkpoint's adopts it instead of
     * simulating its own warmup. This is how the protection explorer
     * shares one warmup across *every* generation batch of a beam
     * search — runTolerant() alone would capture once per call. The
     * pointee must outlive the campaign. Only consulted when
     * @ref sharedWarmup is set.
     */
    const Checkpoint *warmupCheckpoint = nullptr;
};

/** Everything a fault-tolerant campaign reports back. */
struct CampaignReport
{
    std::vector<RunOutcome> outcomes; ///< submission order, one per run

    /** Runs with the given status. */
    std::size_t count(RunStatus s) const;

    /** True when every run produced a result. */
    bool allOk() const { return count(RunStatus::Ok) == outcomes.size(); }

    /** Human-readable summary of every non-Ok run ("" when allOk()). */
    std::string failureReport() const;
};

/**
 * Machine-readable campaign summary: a CSV with one row per submitted
 * experiment — including failed, timed-out and quarantined runs, so a
 * sweep is auditable end-to-end. Every row has the same arity; the
 * numeric cells of non-Ok runs are empty and the trailing `error` cell
 * carries the first line of the failure message (commas replaced so the
 * CSV stays parseable). Columns:
 *
 *   label,seed,status,attempts,ipc,cycles,instructions,
 *   <one raw-AVF column per AvfReport::figureStructs()>,
 *   <matching residual-AVF columns>,error
 */
std::string campaignCsv(const std::vector<Experiment> &exps,
                        const CampaignReport &report);

/**
 * Run a campaign that survives failing runs. Each run executes behind
 * classifyRun()'s exception boundary (fatal/panic are redirected to
 * exceptions for the campaign's duration), in this process or in a
 * forked child; a failure is retried, quarantined or timed out per
 * RunStatus, and the campaign always completes with one RunOutcome per
 * experiment. Ok results are bit-identical to a plain run() of the
 * same descriptors — the tolerant machinery never perturbs a healthy
 * simulation — and journal replay preserves that equality exactly
 * (tests/test_robustness.cc proves both differentially).
 */
CampaignReport runTolerant(CampaignRunner &pool,
                           const std::vector<Experiment> &exps,
                           const CampaignOptions &opt = {},
                           CampaignRunner::ProgressFn progress = nullptr);

} // namespace smtavf

#endif // SMTAVF_SIM_CAMPAIGN_HH
