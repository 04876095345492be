/**
 * @file
 * DG (data gating) fetch policy (El-Moursy & Albonesi, HPCA'03): stop
 * fetching for a thread once it accumulates a threshold of outstanding L1
 * data misses. Responds only to L1 misses — which is why the paper finds
 * it (and PDG) weaker than FLUSH at containing L2-miss-driven AVF.
 */

#ifndef SMTAVF_POLICY_DG_HH
#define SMTAVF_POLICY_DG_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Gate on outstanding L1 data misses. */
class DgPolicy : public FetchPolicy
{
  public:
    /** @param threshold outstanding L1 D-misses that gate a thread. */
    DgPolicy(PolicyContext &ctx, unsigned threshold = 2);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;

    unsigned threshold() const { return threshold_; }

  private:
    unsigned threshold_;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_DG_HH
