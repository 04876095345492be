/**
 * @file
 * First-level dynamic dead-code analysis with deferred classification.
 *
 * An instruction is first-level dynamically dead (FDD) when its destination
 * register is overwritten before any later instruction reads it: a soft
 * error in any of its pipeline residency is architecturally masked, so its
 * bits are un-ACE everywhere (Mukherjee et al.). Deadness is only knowable
 * at the *next writer's* commit, so a committed writer's Residency (the
 * five cycles that bound its IQ, FU, ROB and LSQ intervals) parks here in
 * a Producer record until resolution; the analyzer then classifies it and
 * forwards the bit-cycles to the ledger (and the verdict to the commit
 * trace).
 *
 * Committed readers, not speculative ones, decide liveness: a consumer
 * that was squashed never architecturally read the value.
 */

#ifndef SMTAVF_AVF_DEAD_CODE_HH
#define SMTAVF_AVF_DEAD_CODE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "avf/ledger.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

class CommitTrace;

/**
 * Where one instruction's bits sat in the pipeline, fixed when it leaves
 * it (commit, squash or the end of a run). Each interval below is
 * [start, end) in cycles:
 *
 * - IQ entry:  [dispatch, iqEnd)
 * - FU latch:  [iqEnd, fuEnd), empty when it held none
 * - ROB entry: [dispatch, close)
 * - LSQ tag:   [dispatch, close), memory ops only
 * - LSQ data:  [lsqDataStart, close), memory ops only
 *
 * The core derives it from the instruction's own cycles (residencyAt(),
 * core/smt_core.hh); DeadCodeAnalyzer::forward() turns it into ledger
 * intervals in the order above.
 */
struct Residency
{
    Cycle dispatch = 0;
    Cycle iqEnd = 0;        ///< issue, or the close for an op still queued
    Cycle fuEnd = 0;        ///< == iqEnd when no FU latch was held
    Cycle lsqDataStart = 0; ///< when the LSQ data entry became live
    Cycle close = 0;        ///< commit, squash or end-of-run cycle
    bool mem = false;       ///< holds an LSQ entry
};

/** Tracks pending producers per (thread, architectural register). */
class DeadCodeAnalyzer
{
  public:
    /**
     * @param num_threads hardware contexts
     * @param ledger      destination of resolved intervals
     * @param enabled     when false, every committed instruction resolves
     *                    live immediately (the "no dead-code analysis"
     *                    ablation of DESIGN.md)
     */
    DeadCodeAnalyzer(unsigned num_threads, AvfLedger &ledger, bool enabled);

    /**
     * Process one committing instruction with residency @p r: its
     * register reads make pending producers live; its register write (if
     * any) resolves — and reports — the previous unread producer of the
     * same register as dead, then parks this instruction as the new
     * pending producer.
     *
     * @return true if this commit exposed a dead previous producer of the
     *         destination register (callers use this to classify the
     *         freed physical register's value interval).
     */
    bool onCommit(const DynInstr &in, const Residency &r);

    /**
     * Forward the intervals of a squashed or wrong-path instruction
     * (always un-ACE; no deadness involved).
     */
    void onSquash(const DynInstr &in, const Residency &r);

    /**
     * Forward the intervals of an instruction still in flight at the end
     * of a run (conservatively live; wrong-path instructions stay un-ACE
     * via neverAce()).
     */
    void resolveLive(const DynInstr &in, const Residency &r);

    /** Append commits to @p trace, with FDD verdicts (nullptr: off). */
    void recordCommits(CommitTrace *trace) { trace_ = trace; }

    /** End of run: every still-pending producer is conservatively live. */
    void finish();

    std::uint64_t deadInstructions() const { return deadCount_; }
    std::uint64_t resolvedInstructions() const { return resolvedCount_; }

    /** Fraction of resolved register-writing instructions found dead. */
    double
    deadFraction() const
    {
        return resolvedCount_
                   ? static_cast<double>(deadCount_) / resolvedCount_
                   : 0.0;
    }

    /**
     * Checkpoint hook: counters only. Checkpoints are captured at a
     * boundary where finish() has just resolved every pending producer
     * (conservatively live — the same rule the end of a run applies), so
     * the pending_ table is empty by construction and no producer record
     * ever needs to travel.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(deadCount_);
        ar(resolvedCount_);
    }

  private:
    /** A committed, still-unread register writer. */
    struct Producer
    {
        Residency residency;
        std::size_t traceIdx = 0; ///< its CommitTrace record, or noRecord
        ThreadId tid = invalidThread;
        bool ace = false;         ///< ACE-eligible (not neverAce())
        bool parked = false;      ///< this table entry is occupied
    };

    /** Add @p r's intervals of thread @p tid to the ledger. */
    void forward(ThreadId tid, const Residency &r, bool ace);

    void resolve(Producer &p, bool dead);

    /** Trace index of a commit made while no trace was recording. */
    static constexpr std::size_t noRecord = ~std::size_t{0};

    AvfLedger &ledger_;
    bool enabled_;
    CommitTrace *trace_ = nullptr;
    // pending unread producer per (thread, architectural register)
    AVec<std::array<Producer, numArchRegs>> pending_;
    std::uint64_t deadCount_ = 0;
    std::uint64_t resolvedCount_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_AVF_DEAD_CODE_HH
