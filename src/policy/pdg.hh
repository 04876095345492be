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
#include <unordered_map>
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

    const char *name() const override { return "PDG"; }
    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
    void onFetch(const DynInstr &in) override;
    void onLoadIssued(const DynInstr &load, bool l1_miss,
                      bool l2_miss) override;
    void onLoadDone(const DynInstr &load, bool l1_miss,
                    bool l2_miss) override;

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
        for (auto &m : inFlight_)
            m.clear();
    }

    /** Worker-reuse hook: untrained weakly-not-miss table, nothing in flight. */
    void
    reset() override
    {
        table_.assign(table_.size(), 1);
        predicted_.fill(0);
        // clear() keeps the grown bucket arrays; these maps are only ever
        // probed by key (never iterated), so bucket count is unobservable.
        for (auto &m : inFlight_)
            m.clear();
    }

  private:
    std::uint32_t tableIndex(Addr pc) const;

    unsigned threshold_;
    AVec<std::uint8_t> table_; ///< 2-bit miss counters
    std::array<unsigned, maxContexts> predicted_{};
    /** seq -> predicted-miss flag, to undo the count exactly once. */
    std::array<std::unordered_map<SeqNum, bool>, maxContexts> inFlight_;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_PDG_HH
