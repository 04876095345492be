/**
 * @file
 * Statistical fault injection — the validation methodology the paper's
 * Sections 2 and 6 contrast with ACE analysis (Czeck & Siewiorek; Wang et
 * al.). A bit flip is injected into the destination value of a random
 * *committed* instruction and propagated through architectural dataflow
 * (registers and memory) over the recorded commit trace:
 *
 *  - an overwrite kills the taint in that location;
 *  - a consumer spreads it to its destination;
 *  - a tainted store taints memory; a load from tainted memory re-taints;
 *  - a tainted conditional branch or a tainted address is an immediate
 *    architectural corruption (control/address divergence);
 *  - if all taint dies out, the fault was masked.
 *
 * This adjudicates *transitive* deadness, which upper-bounds the
 * first-level dead-code analysis the AVF model uses: every FDD-dead
 * instruction is masked here, but chains that only feed dead work are
 * masked too. The gap between the two is exactly the conservatism of
 * first-level-only analysis, which bench_validation_injection quantifies.
 */

#ifndef SMTAVF_AVF_INJECTION_HH
#define SMTAVF_AVF_INJECTION_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Architectural facts of one committed instruction. */
struct CommitRecord
{
    ThreadId tid;
    OpClass op;
    RegIndex destReg;
    RegIndex srcReg1;
    RegIndex srcReg2;
    Addr memAddr;
    std::uint8_t memSize;
    bool destDead; ///< the FDD verdict, for cross-checking
};

/**
 * Commit-order trace of a run (recorded when the config asks for it).
 * Each commit appends its record at once; the FDD verdict (destDead)
 * only resolves after the next writer commits, so the dead-code analyzer
 * patches it in by index, and records() is readable after finalize().
 */
class CommitTrace
{
  public:
    /** Record a committing instruction; returns the record's index. */
    std::size_t
    append(const DynInstr &in)
    {
        records_.push_back({in.tid, in.op, in.destReg, in.srcReg1,
                            in.srcReg2, in.memAddr, in.memSize, false});
        return records_.size() - 1;
    }

    /** Record the "dead" FDD verdict of record @p index. */
    void markDead(std::size_t index) { records_[index].destDead = true; }

    /** Seal the trace once every deadness verdict is resolved. */
    void finalize() { finalized_ = true; }

    /** Finalized records in commit order. */
    const std::vector<CommitRecord> &records() const;

    std::size_t size() const { return records_.size(); }
    bool empty() const { return size() == 0; }

  private:
    std::vector<CommitRecord> records_;
    bool finalized_ = false;
};

/** Outcome of one injection trial. */
enum class InjectionOutcome
{
    Masked,    ///< all taint overwritten before any architectural effect
    Corrupted, ///< reached a branch/store/address or survived to the end
    Skipped    ///< origin had no injectable destination
};

/** Aggregate results of a campaign. */
struct InjectionResult
{
    std::uint64_t trials = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t masked = 0;
    std::uint64_t skipped = 0;

    double
    corruptionRate() const
    {
        auto judged = corrupted + masked;
        return judged ? static_cast<double>(corrupted) / judged : 0.0;
    }

    double
    maskedRate() const
    {
        auto judged = corrupted + masked;
        return judged ? static_cast<double>(masked) / judged : 0.0;
    }
};

/** Adjudicates injection trials over a commit trace. */
class InjectionCampaign
{
  public:
    /**
     * @param trace     commit trace to inject into (not owned)
     * @param max_depth propagation window per trial (records of the same
     *                  thread examined after the origin); taint alive at
     *                  the window's end counts as corruption
     */
    explicit InjectionCampaign(const CommitTrace &trace,
                               std::size_t max_depth = 50000);

    /**
     * Adjudicate a fault in the destination value of record @p origin.
     * runInjection() (sim/campaign.hh) samples the origins and fans the
     * trials out over a worker pool.
     */
    InjectionOutcome injectAt(std::size_t origin) const;

    /** Records available as injection origins (the trace length). */
    std::size_t traceSize() const { return trace_.size(); }

  private:
    const CommitTrace &trace_;
    std::size_t maxDepth_;
};

} // namespace smtavf

#endif // SMTAVF_AVF_INJECTION_HH
