#include "sim/simulator.hh"

#include <algorithm>
#include <memory>

#include "base/logging.hh"
#include "sim/errors.hh"
#include "sim/invariants.hh"
#include "sim/journal.hh"

namespace smtavf
{

std::atomic<std::uint64_t> &
simulatedInstructionCounter()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter;
}

namespace
{

/** The registry profile of each of @p mix's benchmarks, in context order. */
std::vector<BenchmarkProfile>
registryProfiles(const MachineConfig &cfg, const WorkloadMix &mix)
{
    if (mix.contexts != cfg.contexts)
        SMTAVF_FATAL("mix ", mix.name, " has ", mix.contexts,
                     " contexts, config has ", cfg.contexts);
    std::vector<BenchmarkProfile> profiles;
    profiles.reserve(mix.benchmarks.size());
    for (const auto &name : mix.benchmarks)
        profiles.push_back(findProfile(name));
    return profiles;
}

/** The mix record of a custom workload: one profile per context. */
WorkloadMix
customMix(const MachineConfig &cfg,
          const std::vector<BenchmarkProfile> &profiles,
          const std::string &name)
{
    if (profiles.size() != cfg.contexts)
        SMTAVF_FATAL("custom workload '", name, "' has ", profiles.size(),
                     " profiles for ", cfg.contexts, " contexts");
    WorkloadMix mix{name, cfg.contexts, MixType::Mix, 'A', {}};
    for (const auto &p : profiles)
        mix.benchmarks.push_back(p.name);
    return mix;
}

} // namespace

Simulator::Simulator(const MachineConfig &cfg, const WorkloadMix &mix,
                     std::vector<std::uint32_t> stream_ids)
    : Simulator(cfg, mix, registryProfiles(cfg, mix), std::move(stream_ids))
{
}

Simulator::Simulator(const MachineConfig &cfg,
                     std::vector<BenchmarkProfile> profiles,
                     const std::string &name)
    : Simulator(cfg, customMix(cfg, profiles, name), profiles, {})
{
}

Simulator::Simulator(const MachineConfig &cfg, WorkloadMix mix,
                     const std::vector<BenchmarkProfile> &profiles,
                     std::vector<std::uint32_t> stream_ids)
    : ctorScope_(arena_), cfg_(cfg), mix_(std::move(mix)),
      streamIds_(std::move(stream_ids)), ledger_(cfg.contexts),
      hier_(cfg.mem),
      dl1Tracker_(hier_.dl1(), ledger_, HwStruct::Dl1Data, HwStruct::Dl1Tag,
                  cfg.avf.perByteCacheAvf),
      dtlbTracker_(hier_.dtlb(), ledger_, HwStruct::Dtlb),
      itlbTracker_(hier_.itlb(), ledger_, HwStruct::Itlb)
{
    cfg_.validate();
    ledger_.setProtection(cfg_.protection);
    if (cfg_.avf.trackL2Avf)
        l2Tracker_ = makeArena<CacheVulnTracker>(
            hier_.l2(), ledger_, HwStruct::L2Data, HwStruct::L2Tag,
            /*per_byte=*/false);
    if (!streamIds_.empty() && streamIds_.size() != cfg_.contexts)
        SMTAVF_FATAL("stream-id override count mismatch");

    std::vector<StreamGenerator *> raw;
    raw.reserve(cfg_.contexts);
    gens_.reserve(cfg_.contexts);
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        std::uint32_t sid =
            streamIds_.empty() ? 0xffffffffu : streamIds_[t];
        gens_.push_back(makeArena<StreamGenerator>(
            profiles[t], cfg_.seed, static_cast<ThreadId>(t), sid));
        raw.push_back(gens_.back().get());
    }
    core_ = makeArena<SmtCore>(cfg_, std::move(raw), hier_, ledger_);

    if (cfg_.prewarmCaches)
        prewarm();

    // Construction is over: run-time growth (lazy scratch, checkpoint
    // payloads) belongs on the heap, not in the monotonic arena.
    ctorScope_.release();
}

void
Simulator::reset(const MachineConfig &cfg, const WorkloadMix &mix) noexcept
{
    std::destroy_at(this);
    std::construct_at(this, cfg, mix);
}

void
Simulator::prewarm()
{
    auto fill_lines = [](Cache &c, ThreadId tid, Addr base,
                         std::uint64_t size) {
        for (Addr a = base; a < base + size; a += c.config().lineBytes)
            c.fill(a, tid, 0);
    };
    auto fill_pages = [](Tlb &t, ThreadId tid, Addr base, std::uint64_t size,
                         std::uint64_t max_pages) {
        std::uint64_t pages = size / t.config().pageBytes + 1;
        if (pages > max_pages)
            pages = max_pages;
        for (std::uint64_t p = 0; p < pages; ++p)
            t.prefill(base + p * t.config().pageBytes, tid);
    };

    // Fair static shares; LRU sorts out the real steady state quickly.
    std::uint64_t l2_share = cfg_.mem.l2.sizeBytes / cfg_.contexts;
    std::uint64_t dtlb_share = cfg_.mem.dtlb.entries / cfg_.contexts;
    std::uint64_t itlb_share = cfg_.mem.itlb.entries / cfg_.contexts;

    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        auto h = gens_[t]->prewarmHints();

        fill_lines(hier_.il1(), tid, h.code.base, h.code.size);
        fill_lines(hier_.l2(), tid, h.code.base, h.code.size);
        fill_lines(hier_.dl1(), tid, h.hot.base, h.hot.size);
        fill_lines(hier_.l2(), tid, h.hot.base,
                   std::min(h.hot.size, l2_share));
        fill_lines(hier_.l2(), tid, h.warm.base,
                   std::min(h.warm.size, l2_share));

        fill_pages(hier_.itlb(), tid, h.code.base, h.code.size, itlb_share);
        fill_pages(hier_.dtlb(), tid, h.hot.base, h.hot.size,
                   dtlb_share / 2 + 1);
        fill_pages(hier_.dtlb(), tid, h.warm.base, h.warm.size,
                   dtlb_share / 2 + 1);
    }
}

void
Simulator::advanceUntil(std::uint64_t target, LoopState &ls)
{
    // Livelock watchdog: a correct model always commits something within
    // the longest dependence stall (a few memory round trips). Raising a
    // structured, catchable error instead of spinning forever (or
    // aborting the process) lets a campaign classify the run and move on.
    const Cycle watchdog_window = cfg_.livelockCycles;

    while (core_->totalCommitted() < target) {
        core_->tick();
        // A quiet tick commits nothing, so the watchdog would throw on
        // the first cycle past its window: land there at the latest.
        skipQuietCycles(watchdog_window > 0
                            ? ls.lastProgress + watchdog_window + 1
                            : maxCycle);
        for (AvfIntervalSeries *s : ls.samplers)
            if (s)
                s->tick(core_->totalCommitted(), core_->now());
        // Cancel poll: bounded-interval check of the campaign's cancel
        // flag so even a run that livelocks below the watchdog horizon
        // (or simply has a huge budget) is interrupted promptly. A
        // relaxed load is enough — the flag only ever flips one way and
        // a poll-interval delay is inherent anyway.
        if (cfg_.cancelCheckCycles > 0 && cfg_.cancel &&
            core_->now() % cfg_.cancelCheckCycles == 0 &&
            cfg_.cancel->load(std::memory_order_relaxed))
            throw CancelledError(core_->now(), mix_.name);
        if (cfg_.invariantCheckCycles > 0 &&
            core_->now() % cfg_.invariantCheckCycles == 0) {
            checkInvariants(*core_, ledger_, core_->now());
            ls.lastChecked = core_->now();
        }
        if (core_->totalCommitted() != ls.lastCommitted) {
            ls.lastCommitted = core_->totalCommitted();
            ls.lastProgress = core_->now();
        } else if (watchdog_window > 0 &&
                   core_->now() - ls.lastProgress > watchdog_window) {
            std::vector<ThreadProgress> progress;
            for (unsigned t = 0; t < cfg_.contexts; ++t) {
                auto tid = static_cast<ThreadId>(t);
                progress.push_back({core_->fetched(tid), core_->issued(tid),
                                    core_->committed(tid)});
            }
            throw LivelockError(core_->now(), watchdog_window, mix_.name,
                                std::move(progress), core_->stateDump());
        }
    }
}

void
Simulator::skipQuietCycles(Cycle limit)
{
    const Cycle now = core_->now();
    Cycle land = std::min(core_->quietUntil(), limit);
    if (land <= now)
        return;
    auto next_multiple = [now](Cycle period) {
        return (now / period + 1) * period;
    };
    if (cfg_.cancelCheckCycles > 0 && cfg_.cancel)
        land = std::min(land, next_multiple(cfg_.cancelCheckCycles));
    if (cfg_.invariantCheckCycles > 0)
        land = std::min(land, next_multiple(cfg_.invariantCheckCycles));
    // The samplers tick at the landing cycle: a cycle window the jump
    // crossed closes there with the tallies it would have had, since
    // nothing a quiet cycle does reaches the ledger.
    core_->skipTo(land);
}

void
Simulator::drainPipeline(LoopState &ls)
{
    core_->setFetchEnabled(false);
    const Cycle start = core_->now();
    // With fetch gated the pipeline empties monotonically, bounded by the
    // same horizon as the livelock watchdog (a handful of memory round
    // trips); exceeding it means a stuck instruction, i.e. a model bug.
    const Cycle bound =
        cfg_.livelockCycles > 0 ? cfg_.livelockCycles : Cycle{2'000'000};
    while (!(core_->pipelineEmpty() && hier_.outstandingMisses() == 0)) {
        core_->tick();
        skipQuietCycles(start + bound + 1);
        for (AvfIntervalSeries *s : ls.samplers)
            if (s)
                s->tick(core_->totalCommitted(), core_->now());
        if (core_->now() - start > bound)
            SMTAVF_FATAL("pipeline failed to drain within ", bound,
                         " cycles (mix ", mix_.name, ")");
    }
    if (cfg_.invariantCheckCycles > 0)
        checkSlotsReleased(*core_, core_->now());
    // A restore from this boundary starts with fresh MSHR maps; so must
    // the run that continues past it.
    hier_.renewMshrs();
    core_->setFetchEnabled(true);
    // Instructions committed during the drain: refresh the watchdog so it
    // times the post-boundary window, not the boundary itself.
    ls.lastCommitted = core_->totalCommitted();
    ls.lastProgress = core_->now();
}

Simulator::Counters
Simulator::readCounters()
{
    Counters c{};
    c[kCycle] = core_->now();
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        c[kCommitted + t] = core_->committed(tid);
        c[kBranches + t] = core_->predictor(tid).branches();
        c[kMispredicts + t] = core_->predictor(tid).mispredicts();
    }
    c[kWrongPathFetched] = core_->wrongPathFetched();
    c[kSquashed] = core_->squashedInstrs();
    c[kDl1Hits] = hier_.dl1().hits();
    c[kDl1Misses] = hier_.dl1().misses();
    c[kL2Hits] = hier_.l2().hits();
    c[kL2Misses] = hier_.l2().misses();
    c[kIl1Hits] = hier_.il1().hits();
    c[kIl1Misses] = hier_.il1().misses();
    c[kDtlbHits] = hier_.dtlb().hits();
    c[kDtlbMisses] = hier_.dtlb().misses();
    c[kDead] = core_->deadCode().deadInstructions();
    c[kResolved] = core_->deadCode().resolvedInstructions();
    return c;
}

void
Simulator::warmupBoundary(std::uint64_t warmup, LoopState &ls)
{
    advanceUntil(warmup, ls);
    drainPipeline(ls);
    core_->boundaryResolveDeadness();
    ledger_.resetTallies(core_->now());
    baseline_ = readCounters();
}

template <class Ar>
void
Simulator::visitState(Ar &ar)
{
    // The baseline leads the payload as 37 u64s (std::array has no
    // length prefix); changing CounterIndex changes the wire shape and
    // needs a kCheckpointVersion bump.
    static_assert(kNumCounters == 37);
    ar(baseline_);
    ar(*core_);
    ar(hier_);
    ar(dl1Tracker_);
    ar(dtlbTracker_);
    ar(itlbTracker_);
    if (l2Tracker_)
        ar(*l2Tracker_);
    ar(ledger_);
}

Checkpoint
Simulator::makeCheckpoint(std::uint64_t at, bool warmup_boundary)
{
    // Counting pass first: payloads run to megabytes, and reserving the
    // exact size turns ~20 geometric reallocations into one allocation.
    ByteCounter size;
    visitState(size);
    Serializer ser;
    ser.reserve(size.total());
    visitState(ser);

    Checkpoint ck;
    ck.configFingerprint =
        checkpointFingerprint(cfg_, mix_, at, warmup_boundary);
    ck.warmupBoundary = warmup_boundary;
    ck.at = at;
    ck.payload = ser.take();
    return ck;
}

void
Simulator::restore(const Checkpoint &ck)
{
    if (ran_)
        SMTAVF_FATAL("restore() after run()");
    if (restored_)
        SMTAVF_FATAL("restore() twice");
    if (!streamIds_.empty())
        SMTAVF_FATAL("checkpoints do not support stream-id overrides");
    if (ck.empty())
        throw CheckpointError("refusing to restore an empty checkpoint");

    std::uint64_t expect =
        checkpointFingerprint(cfg_, mix_, ck.at, ck.warmupBoundary);
    if (expect != ck.configFingerprint)
        throw CheckpointError(
            "checkpoint fingerprint mismatch: captured under a different "
            "workload/machine configuration than this run's");

    Deserializer des(ck.payload);
    visitState(des);
    if (!des.exhausted())
        throw CheckpointError("checkpoint payload has trailing bytes");

    restoredCommitted_ = core_->totalCommitted();
    restored_ = true;
}

Checkpoint
Simulator::captureWarmupCheckpoint(std::uint64_t warmup_instrs)
{
    if (ran_ || restored_)
        SMTAVF_FATAL("captureWarmupCheckpoint on a used simulator");
    ran_ = true;
    if (warmup_instrs == 0)
        SMTAVF_FATAL("zero warmup budget");
    if (!streamIds_.empty())
        SMTAVF_FATAL("checkpoints do not support stream-id overrides");

    LoopState ls;
    warmupBoundary(warmup_instrs, ls);

    simulatedInstructionCounter().fetch_add(core_->totalCommitted(),
                                            std::memory_order_relaxed);
    return makeCheckpoint(warmup_instrs, /*warmup_boundary=*/true);
}

SimResult
Simulator::run(std::uint64_t instr_budget, const RunControls &rc)
{
    if (ran_)
        SMTAVF_FATAL("run() twice on one Simulator");
    ran_ = true;
    if (instr_budget == 0)
        SMTAVF_FATAL("zero instruction budget");
    if ((rc.warmup || rc.checkpointAt) && !streamIds_.empty())
        SMTAVF_FATAL("checkpoints do not support stream-id overrides");
    if (restored_ && rc.warmup)
        SMTAVF_FATAL("warmup after restore (the checkpoint already fixed "
                     "the measured window)");
    if ((!rc.checkpointOut.empty() || rc.checkpointCapture) &&
        rc.checkpointAt == 0)
        SMTAVF_FATAL("checkpoint destination without --checkpoint-at");

    const std::uint64_t start_committed = core_->totalCommitted();

    using Unit = AvfIntervalSeries::Unit;
    std::shared_ptr<AvfIntervalSeries> timeline, series;
    if (cfg_.avfSampleCycles > 0)
        timeline = std::make_shared<AvfIntervalSeries>(
            ledger_, Unit::Cycles, cfg_.avfSampleCycles);
    if (rc.avfInterval > 0)
        series = std::make_shared<AvfIntervalSeries>(
            ledger_, Unit::Instructions, rc.avfInterval);

    std::shared_ptr<CommitTrace> trace;
    if (cfg_.recordCommitTrace) {
        trace = std::make_shared<CommitTrace>();
        core_->recordCommits(trace.get());
    }

    LoopState ls;
    ls.lastCommitted = core_->totalCommitted();
    ls.lastProgress = core_->now();

    // The budget counts instructions of the *measured window*: committed
    // after the warmup boundary (or the restore point), or all of them
    // for a plain run.
    std::uint64_t rel_base = restoredCommitted_;

    if (rc.warmup > 0) {
        warmupBoundary(rc.warmup, ls);
        rel_base = core_->totalCommitted();
    }

    // Both samplers open their first window where the measured window
    // starts, and tick only from there on.
    ls.samplers = {timeline.get(), series.get()};
    for (AvfIntervalSeries *s : ls.samplers)
        if (s)
            s->arm(core_->totalCommitted(), core_->now());

    const std::uint64_t target = rel_base + instr_budget;

    if (rc.checkpointAt > 0) {
        if (rc.checkpointAt <= core_->totalCommitted())
            SMTAVF_FATAL("checkpoint trigger ", rc.checkpointAt,
                         " already passed (", core_->totalCommitted(),
                         " committed)");
        if (rc.checkpointAt >= target)
            SMTAVF_FATAL("checkpoint trigger ", rc.checkpointAt,
                         " at or beyond the run's commit target ", target);
        advanceUntil(rc.checkpointAt, ls);
        drainPipeline(ls);
        core_->boundaryResolveDeadness();
        Checkpoint ck =
            makeCheckpoint(rc.checkpointAt, /*warmup_boundary=*/false);
        if (!rc.checkpointOut.empty())
            saveCheckpointFile(ck, rc.checkpointOut);
        if (rc.checkpointCapture)
            *rc.checkpointCapture = std::move(ck);
    }

    advanceUntil(target, ls);

    // Final consistency gate before any AVF number leaves this run —
    // skipped when the last loop iteration already swept this very cycle.
    if (cfg_.invariantCheckCycles > 0 && core_->now() != ls.lastChecked)
        checkInvariants(*core_, ledger_, core_->now());

    Cycle end = core_->now();
    core_->finalizeAvf();
    if (cfg_.invariantCheckCycles > 0)
        checkSlotsReleased(*core_, end);
    hier_.finalize(end);
    for (AvfIntervalSeries *s : ls.samplers)
        if (s)
            s->finish(core_->totalCommitted(), end);
    if (trace)
        trace->finalize(); // deadness verdicts are all resolved now
    ledger_.finalize(end);

    simulatedInstructionCounter().fetch_add(
        core_->totalCommitted() - start_committed,
        std::memory_order_relaxed);

    // Every reported figure subtracts the baseline, which is all-zero for
    // a plain run — reproducing the historical whole-run numbers exactly
    // — and the boundary snapshot for a warmup run (or a run restored
    // from one), making each figure a measured-window statistic.
    Counters d = readCounters();
    for (std::size_t i = 0; i < kNumCounters; ++i)
        d[i] -= baseline_[i];
    const Cycle win = d[kCycle];

    SimResult r;
    r.mixName = mix_.name;
    r.policyName = fetchPolicyName(cfg_.fetchPolicy);
    r.cycles = win;
    for (unsigned t = 0; t < cfg_.contexts; ++t)
        r.totalCommitted += d[kCommitted + t];
    r.ipc = static_cast<double>(r.totalCommitted) / win;
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        ThreadPerf tp;
        tp.benchmark = mix_.benchmarks[t];
        tp.committed = d[kCommitted + t];
        tp.ipc = static_cast<double>(tp.committed) / win;
        r.threads.push_back(std::move(tp));
    }
    r.avf = AvfReport::fromLedger(ledger_);
    r.timeline = timeline;
    r.avfIntervals = series;
    r.commitTrace = trace;

    auto rate = [](std::uint64_t part, std::uint64_t total) {
        return total ? static_cast<double>(part) / total : 0.0;
    };
    auto miss_rate = [&](CounterIndex hits, CounterIndex misses) {
        return rate(d[misses], d[hits] + d[misses]);
    };
    r.stats.set("dl1.missRate", miss_rate(kDl1Hits, kDl1Misses));
    r.stats.set("l2.missRate", miss_rate(kL2Hits, kL2Misses));
    r.stats.set("il1.missRate", miss_rate(kIl1Hits, kIl1Misses));
    r.stats.set("dtlb.missRate", miss_rate(kDtlbHits, kDtlbMisses));
    r.stats.set("deadCode.fraction", rate(d[kDead], d[kResolved]));
    r.stats.set("fetch.wrongPath",
                static_cast<double>(d[kWrongPathFetched]));
    r.stats.set("squashed", static_cast<double>(d[kSquashed]));
    double mispredict = 0.0;
    for (unsigned t = 0; t < cfg_.contexts; ++t)
        mispredict += rate(d[kMispredicts + t], d[kBranches + t]);
    r.stats.set("branch.mispredictRate", mispredict / cfg_.contexts);
    return r;
}

} // namespace smtavf
