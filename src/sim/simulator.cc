#include "sim/simulator.hh"

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

Simulator::Simulator(const MachineConfig &cfg, const WorkloadMix &mix,
                     std::vector<std::uint32_t> stream_ids)
    : ctorScope_(arena_), cfg_(cfg), mix_(mix),
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
    if (mix_.contexts != cfg_.contexts)
        SMTAVF_FATAL("mix ", mix_.name, " has ", mix_.contexts,
                     " contexts, config has ", cfg_.contexts);
    if (!streamIds_.empty() && streamIds_.size() != cfg_.contexts)
        SMTAVF_FATAL("stream-id override count mismatch");

    std::vector<StreamGenerator *> raw;
    raw.reserve(cfg_.contexts);
    gens_.reserve(cfg_.contexts);
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        const auto &profile = findProfile(mix_.benchmarks[t]);
        std::uint32_t sid =
            streamIds_.empty() ? 0xffffffffu : streamIds_[t];
        gens_.push_back(makeArena<StreamGenerator>(
            profile, cfg_.seed, static_cast<ThreadId>(t), sid));
        raw.push_back(gens_.back().get());
    }
    core_ = makeArena<SmtCore>(cfg_, std::move(raw), hier_, ledger_);

    if (cfg_.prewarmCaches)
        prewarm();

    // Construction is over: run-time growth (lazy scratch, checkpoint
    // payloads) belongs on the heap, not in the monotonic arena.
    ctorScope_.release();
}

Simulator::Simulator(const MachineConfig &cfg,
                     std::vector<BenchmarkProfile> profiles,
                     const std::string &name)
    : ctorScope_(arena_), cfg_(cfg), ledger_(cfg.contexts), hier_(cfg.mem),
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
    if (profiles.size() != cfg_.contexts)
        SMTAVF_FATAL("custom workload '", name, "' has ", profiles.size(),
                     " profiles for ", cfg_.contexts, " contexts");

    mix_.name = name;
    mix_.contexts = cfg_.contexts;
    mix_.type = MixType::Mix;
    mix_.group = 'A';

    std::vector<StreamGenerator *> raw;
    raw.reserve(cfg_.contexts);
    gens_.reserve(cfg_.contexts);
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        profiles[t].validate();
        mix_.benchmarks.push_back(profiles[t].name);
        gens_.push_back(makeArena<StreamGenerator>(
            profiles[t], cfg_.seed, static_cast<ThreadId>(t)));
        raw.push_back(gens_.back().get());
    }
    core_ = makeArena<SmtCore>(cfg_, std::move(raw), hier_, ledger_);

    if (cfg_.prewarmCaches)
        prewarm();

    ctorScope_.release();
}

namespace
{

/**
 * True when two configurations build byte-identical machine structures
 * and drive them through the same timing — the reuse precondition of
 * Simulator::reset(). The field list mirrors fpMachine/fpWorkload in
 * sim/journal.cc exactly (a direct comparison instead of a fingerprint
 * so the reset path stays allocation-free); seed and protection may
 * differ (a re-seed and a ledger overlay swap are part of reset()), and
 * the robustness knobs (livelock/invariant/cancel) never affect what a
 * run computes.
 */
bool
sameTimingShape(const MachineConfig &a, const MachineConfig &b)
{
    auto cache_eq = [](const CacheConfig &x, const CacheConfig &y) {
        return x.sizeBytes == y.sizeBytes && x.ways == y.ways &&
               x.lineBytes == y.lineBytes && x.latency == y.latency &&
               x.ports == y.ports;
    };
    auto tlb_eq = [](const TlbConfig &x, const TlbConfig &y) {
        return x.entries == y.entries && x.ways == y.ways &&
               x.pageBytes == y.pageBytes && x.missPenalty == y.missPenalty;
    };
    return a.contexts == b.contexts && a.fetchWidth == b.fetchWidth &&
           a.decodeWidth == b.decodeWidth && a.issueWidth == b.issueWidth &&
           a.commitWidth == b.commitWidth &&
           a.fetchThreadsPerCycle == b.fetchThreadsPerCycle &&
           a.frontLatency == b.frontLatency &&
           a.fetchQueueSize == b.fetchQueueSize && a.iqSize == b.iqSize &&
           a.robSize == b.robSize && a.lsqSize == b.lsqSize &&
           a.iqPartitioned == b.iqPartitioned &&
           a.intPhysRegs == b.intPhysRegs && a.fpPhysRegs == b.fpPhysRegs &&
           a.fu.intAlu == b.fu.intAlu && a.fu.intMulDiv == b.fu.intMulDiv &&
           a.fu.memPorts == b.fu.memPorts && a.fu.fpAlu == b.fu.fpAlu &&
           a.fu.fpMulDiv == b.fu.fpMulDiv &&
           a.branch.gshareEntries == b.branch.gshareEntries &&
           a.branch.historyBits == b.branch.historyBits &&
           a.branch.btbEntries == b.branch.btbEntries &&
           a.branch.btbWays == b.branch.btbWays &&
           a.branch.rasEntries == b.branch.rasEntries &&
           cache_eq(a.mem.il1, b.mem.il1) && cache_eq(a.mem.dl1, b.mem.dl1) &&
           cache_eq(a.mem.l2, b.mem.l2) && tlb_eq(a.mem.itlb, b.mem.itlb) &&
           tlb_eq(a.mem.dtlb, b.mem.dtlb) &&
           a.mem.memLatency == b.mem.memLatency &&
           a.fetchPolicy == b.fetchPolicy &&
           a.prewarmCaches == b.prewarmCaches &&
           a.avf.deadCodeAnalysis == b.avf.deadCodeAnalysis &&
           a.avf.wrongPathModel == b.avf.wrongPathModel &&
           a.avf.perByteCacheAvf == b.avf.perByteCacheAvf &&
           a.avf.regAllocWindowUnace == b.avf.regAllocWindowUnace &&
           a.avf.trackL2Avf == b.avf.trackL2Avf &&
           a.avfSampleCycles == b.avfSampleCycles &&
           a.recordCommitTrace == b.recordCommitTrace &&
           // PRAT's throttle knobs steer timing; protection may still
           // differ — SmtCore::reset() installs the new config before
           // resetting the policy, so PRAT re-derives its weights from
           // the new assignment.
           (a.fetchPolicy != FetchPolicyKind::PRat ||
            (a.pratEpoch == b.pratEpoch && a.pratCap == b.pratCap));
}

} // namespace

bool
Simulator::canResetTo(const MachineConfig &cfg, const WorkloadMix &mix) const
{
    if (!streamIds_.empty())
        return false; // stream-id replay runs stay single-use
    if (mix.name != mix_.name || mix.contexts != mix_.contexts ||
        mix.benchmarks != mix_.benchmarks)
        return false;
    return sameTimingShape(cfg, cfg_);
}

void
Simulator::reset(const MachineConfig &cfg, const WorkloadMix &mix)
{
    if (!canResetTo(cfg, mix))
        SMTAVF_FATAL("Simulator::reset with an incompatible timing shape "
                     "(mix ", mix.name, " vs ", mix_.name,
                     "); construct a fresh instance instead");

    // Mirror the constructor's order exactly: ledger (protection overlay
    // re-armed after its reset), hierarchy, trackers, generators
    // (re-seeded from the new config), core, prewarm. mix_ is untouched —
    // canResetTo proved it identical, and reassigning it would copy
    // strings (this whole path is gated at zero heap allocations by
    // tests/test_alloc_steady.cc).
    cfg_ = cfg;
    ledger_.reset();
    ledger_.setProtection(cfg_.protection);
    hier_.reset();
    dl1Tracker_.reset();
    dtlbTracker_.reset();
    itlbTracker_.reset();
    if (l2Tracker_)
        l2Tracker_->reset();
    for (unsigned t = 0; t < cfg_.contexts; ++t)
        gens_[t]->reset(cfg_.seed);
    core_->reset(cfg_);
    if (cfg_.prewarmCaches)
        prewarm();

    baseline_ = RunBaseline{};
    restoredCommitted_ = 0;
    restored_ = false;
    ran_ = false;
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
Simulator::advanceUntil(std::uint64_t target, LoopState &ls,
                        AvfTimeline *timeline, AvfIntervalSeries *series)
{
    // Livelock watchdog: a correct model always commits something within
    // the longest dependence stall (a few memory round trips). Raising a
    // structured, catchable error instead of spinning forever (or
    // aborting the process) lets a campaign classify the run and move on.
    const Cycle watchdog_window = cfg_.livelockCycles;

    while (core_->totalCommitted() < target) {
        core_->tick();
        if (timeline)
            timeline->tick(core_->now());
        if (series)
            series->tick(core_->totalCommitted(), core_->now());
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
Simulator::drainPipeline(LoopState &ls, AvfTimeline *timeline,
                         AvfIntervalSeries *series)
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
        if (timeline)
            timeline->tick(core_->now());
        if (series)
            series->tick(core_->totalCommitted(), core_->now());
        if (core_->now() - start > bound)
            SMTAVF_FATAL("pipeline failed to drain within ", bound,
                         " cycles (mix ", mix_.name, ")");
    }
    if (cfg_.invariantCheckCycles > 0)
        checkSlotsReleased(*core_, core_->now());
    core_->setFetchEnabled(true);
    // Instructions committed during the drain: refresh the watchdog so it
    // times the post-boundary window, not the boundary itself.
    ls.lastCommitted = core_->totalCommitted();
    ls.lastProgress = core_->now();
}

void
Simulator::captureBaseline()
{
    RunBaseline b;
    b.cycle = core_->now();
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        b.committed[t] = core_->committed(tid);
        b.branches[t] = core_->predictor(tid).branches();
        b.mispredicts[t] = core_->predictor(tid).mispredicts();
    }
    b.wrongPathFetched = core_->wrongPathFetched();
    b.squashed = core_->squashedInstrs();
    b.dl1Hits = hier_.dl1().hits();
    b.dl1Misses = hier_.dl1().misses();
    b.l2Hits = hier_.l2().hits();
    b.l2Misses = hier_.l2().misses();
    b.il1Hits = hier_.il1().hits();
    b.il1Misses = hier_.il1().misses();
    b.dtlbHits = hier_.dtlb().hits();
    b.dtlbMisses = hier_.dtlb().misses();
    b.dead = core_->deadCode().deadInstructions();
    b.resolved = core_->deadCode().resolvedInstructions();
    baseline_ = b;
}

template <class Ar>
void
Simulator::visitState(Ar &ar)
{
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
    advanceUntil(warmup_instrs, ls, nullptr, nullptr);
    drainPipeline(ls, nullptr, nullptr);
    core_->boundaryResolveDeadness();
    ledger_.resetTallies(core_->now());
    captureBaseline();

    simulatedInstructionCounter().fetch_add(core_->totalCommitted(),
                                            std::memory_order_relaxed);
    return makeCheckpoint(warmup_instrs, /*warmup_boundary=*/true);
}

SimResult
Simulator::run(std::uint64_t instr_budget, const RunControls &rc)
{
    if (ran_)
        SMTAVF_FATAL("run() twice without an intervening reset()");
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

    std::shared_ptr<AvfTimeline> timeline;
    if (cfg_.avfSampleCycles > 0)
        timeline =
            std::make_shared<AvfTimeline>(ledger_, cfg_.avfSampleCycles);

    std::shared_ptr<AvfIntervalSeries> series;
    if (rc.avfInterval > 0)
        series = std::make_shared<AvfIntervalSeries>(ledger_,
                                                     rc.avfInterval);

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
        advanceUntil(rc.warmup, ls, timeline.get(), nullptr);
        drainPipeline(ls, timeline.get(), nullptr);
        core_->boundaryResolveDeadness();
        ledger_.resetTallies(core_->now());
        captureBaseline();
        rel_base = core_->totalCommitted();
    }

    if (series)
        series->arm(core_->totalCommitted(), core_->now());

    const std::uint64_t target = rel_base + instr_budget;

    if (rc.checkpointAt > 0) {
        if (rc.checkpointAt <= core_->totalCommitted())
            SMTAVF_FATAL("checkpoint trigger ", rc.checkpointAt,
                         " already passed (", core_->totalCommitted(),
                         " committed)");
        if (rc.checkpointAt >= target)
            SMTAVF_FATAL("checkpoint trigger ", rc.checkpointAt,
                         " at or beyond the run's commit target ", target);
        advanceUntil(rc.checkpointAt, ls, timeline.get(), series.get());
        drainPipeline(ls, timeline.get(), series.get());
        core_->boundaryResolveDeadness();
        Checkpoint ck =
            makeCheckpoint(rc.checkpointAt, /*warmup_boundary=*/false);
        if (!rc.checkpointOut.empty())
            saveCheckpointFile(ck, rc.checkpointOut);
        if (rc.checkpointCapture)
            *rc.checkpointCapture = std::move(ck);
    }

    advanceUntil(target, ls, timeline.get(), series.get());

    // Final consistency gate before any AVF number leaves this run —
    // skipped when the last loop iteration already swept this very cycle.
    if (cfg_.invariantCheckCycles > 0 && core_->now() != ls.lastChecked)
        checkInvariants(*core_, ledger_, core_->now());

    Cycle end = core_->now();
    core_->finalizeAvf();
    if (cfg_.invariantCheckCycles > 0)
        checkSlotsReleased(*core_, end);
    hier_.finalize(end);
    if (timeline)
        timeline->finish(end);
    if (series)
        series->finish(core_->totalCommitted(), end);
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
    const RunBaseline &b = baseline_;
    const Cycle win = end - b.cycle;

    SimResult r;
    r.mixName = mix_.name;
    r.policyName = fetchPolicyName(cfg_.fetchPolicy);
    r.cycles = win;
    std::uint64_t committed_delta = 0;
    for (unsigned t = 0; t < cfg_.contexts; ++t)
        committed_delta +=
            core_->committed(static_cast<ThreadId>(t)) - b.committed[t];
    r.totalCommitted = committed_delta;
    r.ipc = static_cast<double>(r.totalCommitted) / win;
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        ThreadPerf tp;
        tp.benchmark = mix_.benchmarks[t];
        tp.committed =
            core_->committed(static_cast<ThreadId>(t)) - b.committed[t];
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
    r.stats.set("dl1.missRate",
                rate(hier_.dl1().misses() - b.dl1Misses,
                     (hier_.dl1().hits() - b.dl1Hits) +
                         (hier_.dl1().misses() - b.dl1Misses)));
    r.stats.set("l2.missRate",
                rate(hier_.l2().misses() - b.l2Misses,
                     (hier_.l2().hits() - b.l2Hits) +
                         (hier_.l2().misses() - b.l2Misses)));
    r.stats.set("il1.missRate",
                rate(hier_.il1().misses() - b.il1Misses,
                     (hier_.il1().hits() - b.il1Hits) +
                         (hier_.il1().misses() - b.il1Misses)));
    r.stats.set("dtlb.missRate",
                rate(hier_.dtlb().misses() - b.dtlbMisses,
                     (hier_.dtlb().hits() - b.dtlbHits) +
                         (hier_.dtlb().misses() - b.dtlbMisses)));
    r.stats.set("deadCode.fraction",
                rate(core_->deadCode().deadInstructions() - b.dead,
                     core_->deadCode().resolvedInstructions() - b.resolved));
    r.stats.set("fetch.wrongPath",
                static_cast<double>(core_->wrongPathFetched() -
                                    b.wrongPathFetched));
    r.stats.set("squashed",
                static_cast<double>(core_->squashedInstrs() - b.squashed));
    double mispredict = 0.0;
    for (unsigned t = 0; t < cfg_.contexts; ++t) {
        auto tid = static_cast<ThreadId>(t);
        mispredict += rate(core_->predictor(tid).mispredicts() -
                               b.mispredicts[t],
                           core_->predictor(tid).branches() - b.branches[t]);
    }
    r.stats.set("branch.mispredictRate", mispredict / cfg_.contexts);
    return r;
}

} // namespace smtavf
