/**
 * @file
 * PDG (predictive data gating, El-Moursy & Albonesi, HPCA'03): like DG,
 * but a PC-indexed 2-bit miss predictor classifies loads at fetch, so a
 * thread is gated by its *predicted* in-flight L1 misses and gating kicks
 * in before the misses are even issued.
 */

#ifndef SMTAVF_POLICY_PDG_HH
#define SMTAVF_POLICY_PDG_HH

#include <array>
#include <vector>

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Predictive data gating. */
class PdgPolicy : public FetchPolicy
{
  public:
    /**
     * @param threshold predicted+actual outstanding L1 D-misses that gate
     * @param table_entries miss-predictor size (power of two)
     */
    PdgPolicy(PolicyContext &ctx, unsigned threshold = 2,
              std::uint32_t table_entries = 1024);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
    void onFetch(DynInstr &in) override;
    void onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss) override;
    void onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss) override;

    /** Predicted-miss loads currently in flight for a thread. */
    unsigned predictedInFlight(ThreadId tid) const
    {
        return predicted_[tid];
    }

    /** Checkpoint: the learned miss-predictor table persists. */
    void saveState(Serializer &ar) override { ar(table_); }

    void
    loadState(Deserializer &ar) override
    {
        ar(table_);
        // In-flight prediction state is empty at a drained boundary.
        predicted_.fill(0);
    }

  private:
    std::uint32_t tableIndex(Addr pc) const;

    /** Undo @p load's predicted-miss count if it still holds one. */
    void dropPrediction(DynInstr &load);

    unsigned threshold_;
    AVec<std::uint8_t> table_; ///< 2-bit miss counters
    /** Loads in flight whose DynInstr::predictedMiss is set, per thread. */
    std::array<unsigned, maxContexts> predicted_{};
};

} // namespace smtavf

#endif // SMTAVF_POLICY_PDG_HH
