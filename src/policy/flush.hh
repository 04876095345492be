/**
 * @file
 * FLUSH fetch policy (Tullsen & Brown, MICRO'01): when a thread's load
 * misses in the L2, squash that thread's pipeline from the first
 * instruction after the load and gate its fetch until the data returns.
 * This is the policy the paper finds most effective at draining ACE bits
 * out of the IQ/ROB/LSQ during long-latency misses.
 */

#ifndef SMTAVF_POLICY_FLUSH_HH
#define SMTAVF_POLICY_FLUSH_HH

#include <array>

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Squash-and-gate on L2 data misses. */
class FlushPolicy : public FetchPolicy
{
  public:
    explicit FlushPolicy(PolicyContext &ctx);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
    void onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss) override;
    void onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss) override;

    std::uint64_t flushes() const { return flushes_; }

    /** Checkpoint: cumulative flush count only (gates drain with loads). */
    void saveState(Serializer &ar) override { ar(flushes_); }

    void
    loadState(Deserializer &ar) override
    {
        ar(flushes_);
        gates_ = {};
    }

  private:
    struct Gate
    {
        bool active = false;
        SeqNum loadSeq = 0; ///< the load whose return lifts the gate
    };

    std::array<Gate, maxContexts> gates_{};
    std::uint64_t flushes_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_FLUSH_HH
