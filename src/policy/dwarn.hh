/**
 * @file
 * DWarn fetch policy (Cazorla et al., IPDPS'04): never gate; instead,
 * threads with outstanding data-cache misses are demoted to the lowest
 * fetch-priority group. The paper finds DWarn the best fairness-preserving
 * policy for FU/DL1/register-file reliability efficiency.
 */

#ifndef SMTAVF_POLICY_DWARN_HH
#define SMTAVF_POLICY_DWARN_HH

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Deprioritize (never gate) missing threads. */
class DWarnPolicy : public FetchPolicy
{
  public:
    using FetchPolicy::FetchPolicy;
    const std::vector<ThreadId> &fetchOrder(Cycle now) override;

  private:
    /** Scratch for the deprioritized (missing) group (reused per cycle). */
    std::vector<ThreadId> warned_;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_DWARN_HH
