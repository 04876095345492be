/**
 * @file
 * STALL fetch policy (Tullsen & Brown, MICRO'01): gate fetch for threads
 * with an outstanding L2 data miss; if that would silence everyone, fall
 * back to ICOUNT order over all threads ("always allows at least one
 * thread to continue fetching").
 */

#ifndef SMTAVF_POLICY_STALL_HH
#define SMTAVF_POLICY_STALL_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Gate L2-missing threads. */
class StallPolicy : public FetchPolicy
{
  public:
    using FetchPolicy::FetchPolicy;
    const std::vector<ThreadId> &fetchOrder(Cycle now) override;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_STALL_HH
