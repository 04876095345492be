/**
 * @file
 * The SMT processor core: a cycle-level, execution-driven model of the
 * paper's Table-1 machine. Shared resources (issue queue, physical
 * register pool, function units, caches) are contended by up to eight
 * hardware contexts with private ROBs, LSQs, rename maps and branch
 * predictors — the structural sharing whose reliability consequences the
 * paper characterizes.
 *
 * Pipeline (7 stages): fetch -> decode -> rename -> dispatch -> issue ->
 * execute -> writeback, with in-order per-thread commit behind it. The
 * stages are evaluated back-to-front each cycle so same-cycle structural
 * hazards resolve naturally.
 *
 * AVF accounting: when an instruction commits, squashes or is still in
 * flight at the end of a run, residencyAt() reads its IQ, FU, ROB and LSQ
 * residency off the cycles the stages stamped on it, and the
 * DeadCodeAnalyzer classifies and forwards those intervals, while the
 * cache/TLB observers write to the ledger directly. Instructions live in
 * a fixed slot array (core/instr_slots.hh); every queue holds plain
 * pointers into it.
 */

#ifndef SMTAVF_CORE_SMT_CORE_HH
#define SMTAVF_CORE_SMT_CORE_HH

#include <map>
#include <memory>
#include <vector>

#include "avf/dead_code.hh"
#include "avf/injection.hh"
#include "avf/ledger.hh"
#include "branch/predictor.hh"
#include "core/fu_pool.hh"
#include "core/instr_slots.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/machine_config.hh"
#include "core/regfile.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "base/ring_buffer.hh"
#include "mem/hierarchy.hh"
#include "policy/fetch_policy.hh"
#include "workload/generator.hh"

namespace smtavf
{

/**
 * The residency of @p in as it leaves the pipeline at cycle @p close:
 * committed (@p committed), squashed, or still in flight at the end of a
 * run. Its IQ entry ends at issue, or at @p close for an op still
 * queued; its FU latch runs from issue for one cycle (memory ops) or the
 * op's execution latency, and is empty for a Nop or an unissued op; its
 * LSQ data entry opens at completion for a committed load, at issue for
 * a committed store, and at dispatch otherwise.
 */
Residency residencyAt(const DynInstr &in, Cycle close, bool committed);

/** The SMT pipeline. */
class SmtCore final : public PolicyContext
{
  public:
    /**
     * @param cfg      machine parameters (validated)
     * @param streams  one instruction stream per context (size must equal
     *                 cfg.contexts); not owned
     * @param hier     memory hierarchy (shared with the AVF trackers)
     * @param ledger   AVF interval destination
     */
    SmtCore(const MachineConfig &cfg,
            std::vector<StreamGenerator *> streams, MemHierarchy &hier,
            AvfLedger &ledger);

    ~SmtCore() override;

    SmtCore(const SmtCore &) = delete;
    SmtCore &operator=(const SmtCore &) = delete;

    /** Advance one cycle. */
    void tick();

    /**
     * The last cycle the clock may jump to without passing an event:
     * now() after a tick that changed anything but the clock and the
     * two round-robin pointers, and always under a policy whose
     * fetchOrder() mutates it (PRAT). After a quiet tick, the cycle
     * before the next completion (squashed buckets included), MSHR
     * fill, I-cache stall end or fetched instruction becoming
     * dispatchable; now() when no such event is pending at all. Every
     * cycle up to it would tick as quietly as the last one did.
     */
    Cycle quietUntil() const { return active_ ? now_ : lastQuietCycle(); }

    /**
     * Jump the clock to @p to, now() < @p to <= quietUntil(), leaving the
     * machine exactly as ticking through the quiet cycles would: only
     * the round-robin pointers advance with the clock.
     */
    void skipTo(Cycle to);

    /** Cycles skipTo() jumped over since construction (diagnostic). */
    std::uint64_t skippedCycles() const { return skipped_; }

    /**
     * End of run: close residual AVF intervals (registers, pending
     * deadness) and free every in-flight instruction's slot. Afterwards
     * the core only reports statistics.
     */
    void finalizeAvf();

    /**
     * Gate the fetch stage (drain-then-checkpoint). With fetch disabled
     * the pipeline empties monotonically: in-flight instructions complete
     * or squash, outstanding misses return, and no new work enters.
     */
    void setFetchEnabled(bool enabled) { fetchEnabled_ = enabled; }

    bool fetchEnabled() const { return fetchEnabled_; }

    /**
     * Resolve every deferred dead-code classification at a drained
     * boundary, the same conservatively-live rule the end of a run
     * applies. Afterwards the analyzer holds no producer records, which
     * is what lets a checkpoint travel without serializing them. A
     * checkpoint is therefore a (deterministic) semantically visible
     * event: the contract is restore-then-run ==
     * the-run-that-checkpointed-and-continued, not == a run that never
     * checkpointed (docs/CHECKPOINT.md).
     */
    void boundaryResolveDeadness() { analyzer_.finish(); }

    /**
     * True when no instruction is in flight anywhere — no live slot, so
     * every fetch queue, ROB, IQ and LSQ is empty (slots.ownership) —
     * and no completion event, not even a squashed one, is scheduled.
     * The drained-boundary predicate of checkpoint capture.
     */
    bool
    pipelineEmpty() const
    {
        if (slots_.live() != 0 || !overflow_.empty())
            return false;
        for (const auto &b : wheel_)
            if (b.head || b.squashed)
                return false;
        return true;
    }

    /**
     * Checkpoint hook. Only callable at a drained boundary (pipelineEmpty
     * and DeadCodeAnalyzer::finish already run) — capture on a live
     * pipeline throws CheckpointError. What travels is exactly the state
     * that outlives a drain: the clock, sequence counters, cumulative
     * stats, learned predictor state, the register file with its free
     * lists (pop order is architecturally visible), FU busy horizon, the
     * dead-code tallies, rename maps and the per-thread stream
     * generators. Per-instruction state (queues, gates, outstanding-miss
     * counts, wrong-path mode) is zero at the boundary by construction on
     * both sides, so it never travels.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        if constexpr (!Ar::loading) {
            if (!pipelineEmpty())
                throw CheckpointError(
                    "checkpoint capture with instructions in flight "
                    "(drain-then-checkpoint violated)");
        }
        ar(now_);
        ar(globalDispatchSeq_);
        ar(commitRR_);
        ar(dispatchRR_);
        ar(wrongPathFetched_);
        ar(squashedInstrs_);
        ar(fetchedInstrs_);
        ar(regfile_);
        ar(fuPool_);
        ar(analyzer_);
        for (auto &thp : threads_) {
            auto &th = *thp;
            ar(th.fetchStreamIdx);
            ar(th.wrongPathPc);
            ar(th.seqCounter);
            ar(th.icacheStallUntil);
            ar(th.fetchedCount);
            ar(th.issuedCount);
            ar(th.committedCount);
            ar(th.nextCommitStreamIdx);
            ar(th.rename);
            ar(th.predictor);
            ar(*th.gen);
        }
        if constexpr (Ar::loading) {
            policy_->loadState(ar);
            // Boundary invariants: already true on the fresh core a
            // restore targets, restated so no checkpoint can break them.
            clearInFlight();
        } else if constexpr (std::is_same_v<Ar, ByteCounter>) {
            // saveState is a virtual taking Serializer& (it cannot be a
            // template); measure its few bytes with a scratch buffer.
            Serializer scratch;
            policy_->saveState(scratch);
            ar.add(scratch.buffer().size());
        } else {
            policy_->saveState(ar);
        }
    }

    Cycle now() const { return now_; }
    std::uint64_t committed(ThreadId tid) const;
    std::uint64_t totalCommitted() const;

    /** Per-thread branch predictor (stats access). */
    const ThreadPredictor &predictor(ThreadId tid) const;

    /** The active fetch policy. */
    FetchPolicy &policy() { return *policy_; }

    /** The dead-code analyzer (stats access). */
    const DeadCodeAnalyzer &deadCode() const { return analyzer_; }

    std::uint64_t wrongPathFetched() const { return wrongPathFetched_; }
    std::uint64_t squashedInstrs() const { return squashedInstrs_; }
    std::uint64_t fetchedInstrs() const { return fetchedInstrs_; }

    /** One-line-per-thread pipeline snapshot for stall diagnostics. */
    std::string stateDump() const;

    // ---- state exposure for the invariant checker (sim/invariants.hh) --

    /** The validated machine configuration this core was built with. */
    const MachineConfig &config() const { return cfg_; }

    /** The shared physical register pool. */
    PhysRegFile &regfileRef() { return regfile_; }
    const PhysRegFile &regfileRef() const { return regfile_; }

    /** The shared issue queue. */
    const IssueQueue &issueQueue() const { return iq_; }

    /** One thread's reorder buffer. */
    const Rob &rob(ThreadId tid) const { return threads_.at(tid)->rob; }

    /** One thread's load/store queue. */
    const Lsq &lsq(ThreadId tid) const { return threads_.at(tid)->lsq; }

    /** One thread's rename table. */
    const RenameMap &
    renameMap(ThreadId tid) const
    {
        return threads_.at(tid)->rename;
    }

    /** Instructions fetched on behalf of one thread (wrong path included). */
    std::uint64_t fetched(ThreadId tid) const;

    /** Instructions issued on behalf of one thread. */
    std::uint64_t issued(ThreadId tid) const;

    /** Append committing instructions to @p trace (nullptr disables). */
    void recordCommits(CommitTrace *trace) { analyzer_.recordCommits(trace); }

    /** The instruction slot array. */
    const InstrSlots &slots() const { return slots_; }

    /** Visit each instruction in @p tid's fetch queue, oldest first. */
    template <typename Fn>
    void
    forEachFetched(ThreadId tid, Fn &&fn) const
    {
        for (const auto &fe : threads_.at(tid)->frontQueue)
            fn(fe.in);
    }

    /** Visit each instruction waiting on the completion wheel. */
    template <typename Fn>
    void
    forEachScheduled(Fn &&fn) const
    {
        for (const auto &b : wheel_)
            for (const DynInstr *in = b.head; in; in = in->completionNext)
                fn(in);
        for (const auto &kv : overflow_)
            for (const DynInstr *in = kv.second.head; in;
                 in = in->completionNext)
                fn(in);
    }

    // ---- PolicyContext -------------------------------------------------
    unsigned numThreads() const override;
    unsigned inFlightCount(ThreadId tid) const override;
    unsigned inFlightCorrectPath(ThreadId tid) const override;
    unsigned outstandingL1D(ThreadId tid) const override;
    unsigned outstandingL2D(ThreadId tid) const override;

    /**
     * Squash all instructions of @p tid with seq > @p seq (a FLUSH or a
     * mispredicted branch): ROB walk-back rename recovery, resource
     * release, un-ACE classification, front-end reset.
     */
    void flushAfter(ThreadId tid, SeqNum seq) override;
    unsigned structOccupancy(HwStruct s, ThreadId tid) const override;
    const ProtectionConfig *
    protectionConfig() const override
    {
        return &cfg_.protection;
    }
    const AvfLedger *avfLedger() const override { return &ledger_; }

  private:
    /** Fetched-but-not-dispatched instruction. */
    struct FrontEntry
    {
        DynInstr *in;
        Cycle readyAt; ///< earliest dispatch cycle (front-end latency)
    };

    /** Per-context pipeline state. */
    struct ThreadContext
    {
        ThreadContext(const MachineConfig &cfg, StreamGenerator *g);

        StreamGenerator *gen;
        RingBuffer<FrontEntry> frontQueue;
        std::uint64_t fetchStreamIdx = 0;
        bool wrongPathMode = false;
        Addr wrongPathPc = 0;
        SeqNum seqCounter = 0;
        Cycle icacheStallUntil = 0;
        unsigned iqCount = 0;
        /** Wrong-path instructions currently in frontQueue or IQ. */
        unsigned wrongPathFrontIq = 0;
        unsigned outL1D = 0;
        unsigned outL2D = 0;
        std::uint64_t fetchedCount = 0;
        std::uint64_t issuedCount = 0;
        std::uint64_t committedCount = 0;
        std::uint64_t nextCommitStreamIdx = 0;
        RenameMap rename;
        Rob rob;
        Lsq lsq;
        ThreadPredictor predictor;
    };

    void processCompletions();
    void commitStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    unsigned fetchThread(ThreadId tid, unsigned budget);

    /**
     * Try to issue one woken IQ entry (operands ready): memory port,
     * disambiguation and function-unit checks; true on success.
     */
    bool tryIssue(DynInstr *in, unsigned &mem_ports_used);

    /** Complete one instruction at the current cycle. */
    void complete(DynInstr *in);

    /** Recompute wrong-path mode and the fetch cursor after a squash. */
    void recomputeFetchState(ThreadContext &th);

    void scheduleCompletion(DynInstr *in, Cycle when);

    /** quietUntil() after a quiet tick: the next event's cycle - 1. */
    Cycle lastQuietCycle() const;

    /** Take a squashed instruction's pending event off the wheel. */
    void unschedule(DynInstr *in);

    /** Empty every queue, the wheel and the notices; free all slots. */
    void clearInFlight();

    MachineConfig cfg_;
    MemHierarchy &hier_;
    AvfLedger &ledger_;
    DeadCodeAnalyzer analyzer_;

    InstrSlots slots_;

    PhysRegFile regfile_;
    IssueQueue iq_;
    /** Issue-stage scratch: woken, then issued, IQ positions. */
    AVec<std::uint32_t> issuePos_;
    FuPool fuPool_;
    AVec<ArenaPtr<ThreadContext>> threads_;
    ArenaPtr<FetchPolicy> policy_;

    Cycle now_ = 0;
    SeqNum globalDispatchSeq_ = 0;
    unsigned commitRR_ = 0;
    unsigned dispatchRR_ = 0;

    /**
     * One completion cycle's events, FIFO-chained intrusively through
     * DynInstr::completionNext: append is O(1) via the tail pointer and
     * the chain borrows the instructions' own storage, so scheduling
     * allocates nothing no matter how many events pile onto one cycle.
     * A squash unlinks its events so their slots free at once, but sets
     * `squashed`: pipelineEmpty() must see the cycle as scheduled until
     * it drains, or drain boundaries (and so checkpoints) would move.
     */
    struct CompletionList
    {
        DynInstr *head = nullptr; ///< oldest-scheduled event
        DynInstr *tail = nullptr; ///< append point; null iff head empty
        bool squashed = false;    ///< an event was unlinked by a squash

        void
        append(DynInstr *in)
        {
            if (tail)
                tail->completionNext = in;
            else
                head = in;
            tail = in;
        }

        /** Unlink @p in; false when it is not on this list. */
        bool
        remove(DynInstr *in)
        {
            DynInstr *prev = nullptr;
            for (DynInstr **at = &head; *at; at = &(*at)->completionNext) {
                if (*at == in) {
                    *at = in->completionNext;
                    if (tail == in)
                        tail = prev;
                    in->completionNext = nullptr;
                    squashed = true;
                    return true;
                }
                prev = *at;
            }
            return false;
        }
    };

    /** Complete every event of @p list in schedule order, unchaining it. */
    void drainCompletions(CompletionList &list);

    /**
     * Completion calendar wheel: bucket `c & wheelMask_` holds the
     * instructions finishing at cycle c. Sized past the worst-case
     * FU + TLB + cache + memory latency, so in practice every event lands
     * in a bucket; anything scheduled further out than the wheel horizon
     * parks in `overflow_` and is drained (first, preserving schedule
     * order) when its cycle arrives. Together with the intrusive
     * CompletionList this makes steady-state wakeup scheduling
     * allocation-free — unlike the std::map<Cycle, vector> it replaces,
     * which paid a node allocation per distinct completion cycle.
     */
    AVec<CompletionList> wheel_;
    Cycle wheelMask_ = 0;
    std::map<Cycle, CompletionList> overflow_;

    /**
     * Deferred policy notifications (no IQ mutation mid-issue-scan). A
     * load a FLUSH squashed mid-delivery reads squashed=true until
     * fetch, later in the cycle, reuses its slot.
     */
    struct LoadNotice
    {
        DynInstr *load;
        bool l1Miss;
        bool l2Miss;
    };
    std::vector<LoadNotice> pendingNotices_;

    std::uint64_t wrongPathFetched_ = 0;
    std::uint64_t squashedInstrs_ = 0;
    std::uint64_t fetchedInstrs_ = 0;

    /** Fetch gate for drain-then-checkpoint (setFetchEnabled). */
    bool fetchEnabled_ = true;

    /**
     * The current tick changed state beyond the clock and the
     * round-robin pointers: a fill landed, a completion list drained, or
     * something committed, issued, dispatched or got past fetch's
     * guards. Each tick starts it at fetchOrderMutates_.
     */
    bool active_ = true;
    /** FetchPolicy::fetchOrderMutates(), read once at construction. */
    bool fetchOrderMutates_ = false;
    std::uint64_t skipped_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_CORE_SMT_CORE_HH
