/**
 * @file
 * PSTALL: the paper's Section-5 enhancement of STALL. A PC-indexed 2-bit
 * L2-miss predictor classifies loads at fetch; a thread is gated the
 * moment a predicted-L2-missing load enters the pipeline — before the
 * miss even issues — so the flood of dependent ACE bits that plain STALL
 * admits during its detection window never enters. Actual outstanding L2
 * misses gate too (STALL behaviour), and, like STALL, at least one thread
 * always keeps fetching.
 */

#ifndef SMTAVF_POLICY_PSTALL_HH
#define SMTAVF_POLICY_PSTALL_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Predictive stall (paper Section 5 future-work proposal). */
class PStallPolicy : public FetchPolicy
{
  public:
    /** @param table_entries L2-miss predictor size (power of two). */
    explicit PStallPolicy(PolicyContext &ctx,
                          std::uint32_t table_entries = 1024);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
    void onFetch(DynInstr &in) override;
    void onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss) override;
    void onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss) override;

    /** Loads currently gating their thread on a fetch-time prediction. */
    bool predictGateActive(ThreadId tid) const
    {
        return gates_[tid].active;
    }

    /** Checkpoint: the learned L2-miss predictor table persists. */
    void saveState(Serializer &ar) override { ar(table_); }

    void
    loadState(Deserializer &ar) override
    {
        ar(table_);
        // No load is in flight at a drained boundary, so no gate is held.
        gates_ = {};
    }

  private:
    struct Gate
    {
        bool active = false;
        SeqNum loadSeq = 0;
    };

    std::uint32_t tableIndex(Addr pc) const;

    AVec<std::uint8_t> table_; ///< 2-bit L2-miss counters
    std::array<Gate, maxContexts> gates_{};
};

} // namespace smtavf

#endif // SMTAVF_POLICY_PSTALL_HH
