/**
 * @file
 * Per-thread front-end predictor combining gshare, BTB and RAS. Each SMT
 * context owns a private instance (Table 1: per-thread predictors).
 *
 * The stream generator knows each branch's actual outcome, so fetch can
 * determine right away whether a prediction is wrong; the pipeline still
 * pays the full penalty (wrong-path fetch until the branch resolves at
 * execute, then squash + redirect). Global history is repaired with the
 * actual outcome at prediction time, which is exactly the state a real
 * machine reaches after recovery; the predictor tables themselves are
 * trained at resolve time with the history the prediction was made under.
 */

#ifndef SMTAVF_BRANCH_PREDICTOR_HH
#define SMTAVF_BRANCH_PREDICTOR_HH

#include <cstdint>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Geometry of the per-thread predictor (Table 1 defaults). */
struct BranchConfig
{
    std::uint32_t gshareEntries = 2048;
    std::uint32_t historyBits = 10;
    std::uint32_t btbEntries = 2048;
    std::uint32_t btbWays = 4;
    std::uint32_t rasEntries = 32;
};

/** One thread's combined direction/target predictor. */
class ThreadPredictor
{
  public:
    explicit ThreadPredictor(const BranchConfig &cfg);

    /**
     * Predict the control instruction @p in (annotates predTaken,
     * predHistory and mispredicted in place). Non-control instructions are
     * ignored.
     */
    void predict(DynInstr &in);

    /** Train gshare/BTB with the resolved branch (call at execute). */
    void train(const DynInstr &in);

    /**
     * Undo the speculative state (global history, RAS) of a squashed
     * control instruction. Call during squash walk-back, youngest first,
     * so the final state is the oldest squashed branch's pre-state.
     */
    void squashRecover(const DynInstr &in);

    std::uint64_t branches() const { return branches_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Misprediction rate over all control instructions seen. */
    double
    mispredictRate() const
    {
        return branches_ ? static_cast<double>(mispredicts_) / branches_
                         : 0.0;
    }

    /** Checkpoint hook: all three structures plus the counters. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(gshare_);
        ar(btb_);
        ar(ras_);
        ar(branches_);
        ar(mispredicts_);
    }

  private:
    Gshare gshare_;
    Btb btb_;
    Ras ras_;
    std::uint64_t branches_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_BRANCH_PREDICTOR_HH
