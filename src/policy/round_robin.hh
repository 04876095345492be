/**
 * @file
 * Round-robin fetch policy: rotate priority each cycle. Not in the paper's
 * studied set; kept as the simplest reference point and for tests.
 */

#ifndef SMTAVF_POLICY_ROUND_ROBIN_HH
#define SMTAVF_POLICY_ROUND_ROBIN_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Rotate thread priority every cycle. */
class RoundRobinPolicy : public FetchPolicy
{
  public:
    using FetchPolicy::FetchPolicy;
    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_ROUND_ROBIN_HH
