/**
 * @file
 * Top-level simulation driver: builds the ledger, memory hierarchy, AVF
 * trackers, workload streams and the SMT core for one (config, mix) pair,
 * runs to an instruction budget, and returns a SimResult.
 *
 * Checkpoint/restore (docs/CHECKPOINT.md): a Simulator can capture its
 * whole state at a *drained boundary* (pipeline empty, MSHRs empty,
 * deferred deadness resolved) into a Checkpoint, and a freshly
 * constructed Simulator with a compatible config can restore it and
 * continue bit-identically to the run that captured it. Warmup
 * (`--warmup N`) uses the same boundary: statistics and AVF tallies reset
 * there, so the SimResult covers only the measured window.
 */

#ifndef SMTAVF_SIM_SIMULATOR_HH
#define SMTAVF_SIM_SIMULATOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "avf/interval_series.hh"
#include "base/arena.hh"
#include "avf/ledger.hh"
#include "avf/mem_trackers.hh"
#include "ckpt/checkpoint.hh"
#include "core/machine_config.hh"
#include "core/smt_core.hh"
#include "mem/hierarchy.hh"
#include "metrics/metrics.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"

namespace smtavf
{

/**
 * Process-wide count of instructions actually simulated (committed),
 * summed over every Simulator in this process. The shared-warmup tests
 * (SharedWarmupExplorer in tests/test_ckpt.cc) and perfbench's explore
 * workload read it to prove how much simulation a reused checkpoint
 * saved; it feeds no simulation semantics.
 */
std::atomic<std::uint64_t> &simulatedInstructionCounter();

/** Optional per-run controls of Simulator::run (all off by default). */
struct RunControls
{
    /**
     * Commit this many instructions, then drain, reset all statistics and
     * AVF tallies, and run the measured budget on top. 0 = no warmup.
     */
    std::uint64_t warmup = 0;

    /**
     * Capture a checkpoint once this many instructions committed in
     * total (must lie inside the run). 0 = never.
     */
    std::uint64_t checkpointAt = 0;

    /** File to write the checkpointAt capture to ("" = don't write). */
    std::string checkpointOut;

    /** In-memory destination of the checkpointAt capture (optional). */
    Checkpoint *checkpointCapture = nullptr;

    /**
     * Close an AVF sample row every N committed instructions
     * (SimResult::avfIntervals). 0 = off.
     */
    std::uint64_t avfInterval = 0;
};

/**
 * One simulation instance, single use: construct, run once, read the
 * result. Campaigns build one Simulator per run.
 *
 * All setup-time containers are carved from a private monotonic Arena
 * (base/arena.hh): member order puts the arena and an ArenaCtorScope
 * ahead of every sub-structure, so their constructors see the arena as
 * the thread's current one and bump-allocate instead of hitting the
 * global heap. The scope is released at the end of the constructor
 * body; run-time growth (lazy scratch vectors) uses the heap as before.
 */
class Simulator
{
  public:
    /**
     * @param cfg machine parameters; cfg.contexts must match the mix
     * @param mix the workload (one benchmark per context)
     * @param stream_ids per-thread stream seeding identities (empty: each
     *        thread seeds by its own context id). Used by single-thread
     *        baseline runs to replay an SMT context's exact stream.
     */
    Simulator(const MachineConfig &cfg, const WorkloadMix &mix,
              std::vector<std::uint32_t> stream_ids = {});

    /**
     * Build from explicit profiles instead of registry names — the entry
     * point for custom workloads (one profile per context).
     */
    Simulator(const MachineConfig &cfg,
              std::vector<BenchmarkProfile> profiles,
              const std::string &name = "custom");

    /**
     * Run until @p instr_budget instructions commit in total (all
     * threads) and return the result. Single use. With warmup or after
     * restore(), the budget counts instructions committed *after* the
     * boundary/restore point.
     */
    SimResult run(std::uint64_t instr_budget,
                  const RunControls &rc = RunControls{});

    /**
     * Adopt a checkpoint's state (before run()). Recomputes the
     * checkpoint fingerprint from this simulator's own config/mix and
     * throws CheckpointError when it disagrees with the stored one —
     * restoring under a different seed, machine geometry, workload, or
     * (for non-warmup checkpoints) protection scheme is rejected rather
     * than silently diverging.
     */
    void restore(const Checkpoint &ck);

    /**
     * Run @p warmup_instrs instructions, drain, reset tallies, and
     * return the warmup-boundary checkpoint. Single use (the instance is
     * consumed). Equivalent state to run()'s own `--warmup` boundary, so
     * a run restored from this checkpoint is bit-identical to a
     * `--warmup N` run of the same experiment — that equivalence is what
     * lets campaigns share one warmup across candidates.
     */
    Checkpoint captureWarmupCheckpoint(std::uint64_t warmup_instrs);

    /**
     * Rebuild this instance in place as Simulator(@p cfg, @p mix).
     * Deprecated: a shim kept only because the benchmark harness
     * (perfbench/harness) still calls it; remove it with the next
     * benchmark change. noexcept, so a constructor failure terminates
     * rather than leaving a destroyed object behind.
     */
    void reset(const MachineConfig &cfg, const WorkloadMix &mix) noexcept;

    /** Committed-instruction count adopted from restore() (else 0). */
    std::uint64_t restoredCommitted() const { return restoredCommitted_; }

    /** Direct access for white-box tests. */
    SmtCore &core() { return *core_; }
    MemHierarchy &hierarchy() { return hier_; }
    AvfLedger &ledger() { return ledger_; }

  private:
    /**
     * The one constructor body: both public constructors resolve their
     * profiles (the registry's for a mix, or the caller's) and land here.
     */
    Simulator(const MachineConfig &cfg, WorkloadMix mix,
              const std::vector<BenchmarkProfile> &profiles,
              std::vector<std::uint32_t> stream_ids);

    /**
     * Indices of the cumulative counters every measured-window statistic
     * is a difference of, in checkpoint wire order. Per-thread counters
     * take maxContexts consecutive slots (index + tid); slots of absent
     * contexts stay zero.
     */
    enum CounterIndex : std::size_t
    {
        kCycle,
        kCommitted,
        kWrongPathFetched = kCommitted + maxContexts,
        kSquashed,
        kDl1Hits,
        kDl1Misses,
        kL2Hits,
        kL2Misses,
        kIl1Hits,
        kIl1Misses,
        kDtlbHits,
        kDtlbMisses,
        kBranches,
        kMispredicts = kBranches + maxContexts,
        kDead = kMispredicts + maxContexts,
        kResolved,
        kNumCounters
    };
    using Counters = std::array<std::uint64_t, kNumCounters>;

    /** Watchdog/invariant bookkeeping shared by the tick loops. */
    struct LoopState
    {
        std::uint64_t lastCommitted = 0;
        Cycle lastProgress = 0;
        Cycle lastChecked = 0;
        /** The run's armed AVF samplers (cycle, instruction windows). */
        std::array<AvfIntervalSeries *, 2> samplers{};
    };

    void prewarm();

    /** Tick until @p target instructions committed in total. */
    void advanceUntil(std::uint64_t target, LoopState &ls);

    /**
     * After a quiet tick, jump the clock over the quiet cycles that
     * follow (SmtCore::quietUntil), landing no later than @p limit and
     * no later than the next cycle the cancel poll or the invariant
     * checker runs on, so every check still sees its own cycle. Both
     * tick loops call it right after SmtCore::tick().
     */
    void skipQuietCycles(Cycle limit);

    /**
     * Disable fetch and tick until the pipeline and MSHRs are empty
     * (bounded; SMTAVF_FATAL if quiescence is never reached), renew the
     * MSHR maps (MemHierarchy::renewMshrs), then re-enable fetch.
     */
    void drainPipeline(LoopState &ls);

    /** Read every cumulative counter, indexed by CounterIndex. */
    Counters readCounters();

    /**
     * The measured window's start, shared by run()'s `--warmup` and
     * captureWarmupCheckpoint(): commit @p warmup instructions, drain,
     * resolve deadness at the boundary, zero the AVF tallies and take
     * the counter baseline.
     */
    void warmupBoundary(std::uint64_t warmup, LoopState &ls);

    /** Serialize the full machine state into a Checkpoint. */
    Checkpoint makeCheckpoint(std::uint64_t at, bool warmup_boundary);

    /**
     * The one list of checkpointed state, shared by the ByteCounter
     * sizing pass, the Serializer write and the Deserializer read so
     * the three can never disagree on field order.
     */
    template <class Ar> void visitState(Ar &ar);

    /**
     * Declared first so every member below is constructed (and carves
     * its setup-time containers) under ctorScope_ — C++ guarantees
     * member construction in declaration order. The scope is released
     * at the end of the constructor body.
     */
    Arena arena_;
    ArenaCtorScope ctorScope_;

    MachineConfig cfg_;
    WorkloadMix mix_;
    std::vector<std::uint32_t> streamIds_;
    AvfLedger ledger_;
    MemHierarchy hier_;
    CacheVulnTracker dl1Tracker_;
    TlbVulnTracker dtlbTracker_;
    TlbVulnTracker itlbTracker_;
    /** Present when MachineConfig::avf.trackL2Avf (per-line granularity). */
    ArenaPtr<CacheVulnTracker> l2Tracker_;
    AVec<ArenaPtr<StreamGenerator>> gens_;
    ArenaPtr<SmtCore> core_;
    /**
     * Counters at the measured-window start. All-zero for plain runs, so
     * subtracting it reproduces whole-run statistics exactly; a warmup
     * boundary fills it, making every SimResult figure a measured-window
     * delta. Travels inside checkpoints so a restored run subtracts the
     * same baseline as the run that captured it.
     */
    Counters baseline_{};
    std::uint64_t restoredCommitted_ = 0;
    bool restored_ = false;
    bool ran_ = false;
};

} // namespace smtavf

#endif // SMTAVF_SIM_SIMULATOR_HH
