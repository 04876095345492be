/**
 * @file
 * ICOUNT fetch policy: prioritize the thread with the fewest in-flight
 * instructions (Tullsen et al., ISCA'96). The paper's baseline.
 */

#ifndef SMTAVF_POLICY_ICOUNT_HH
#define SMTAVF_POLICY_ICOUNT_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** The ICOUNT baseline. */
class IcountPolicy : public FetchPolicy
{
  public:
    using FetchPolicy::FetchPolicy;
    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_ICOUNT_HH
