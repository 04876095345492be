/**
 * @file
 * RAT: reliability-aware fetch throttling, the paper's second Section-5
 * proposal ("reliability-aware fetch throttling, which is built on top of
 * existing fetch schemes and extended with reliability awareness of
 * individual threads, can be used to maintain a low AVF while achieving a
 * high throughput").
 *
 * Threads are prioritized by — and capped at — their in-flight
 * *correct-path* instruction population, the machine's live estimate of
 * the ACE bits each thread currently exposes to strikes. A thread above
 * the cap stops fetching until its exposed population drains; wrong-path
 * junk (un-ACE by construction) does not count against it.
 */

#ifndef SMTAVF_POLICY_RAT_HH
#define SMTAVF_POLICY_RAT_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Reliability-aware throttling. */
class RatPolicy : public FetchPolicy
{
  public:
    /**
     * @param ace_cap in-flight correct-path instructions per thread above
     *        which fetch is gated (0 = derive as 2 x a fair IQ share,
     *        i.e. 48 for the Table-1 machine at 4 contexts)
     */
    explicit RatPolicy(PolicyContext &ctx, unsigned ace_cap = 0);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;

    unsigned aceCap() const { return aceCap_; }

  private:
    unsigned aceCap_;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_RAT_HH
