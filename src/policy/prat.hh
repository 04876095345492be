/**
 * @file
 * PRAT: protection-aware reliability throttling. RAT (policy/rat.hh)
 * gates a thread on its raw in-flight correct-path population — the
 * machine's live estimate of the ACE bits it exposes. Once heterogeneous
 * protection (protect/scheme.hh) is deployed that estimate overcounts:
 * an instruction sitting in a SECDED-covered ROB exposes ~1/256 of the
 * bits an unprotected ROB would, so throttling for it spends throughput
 * shading bits that ECC already covers.
 *
 * PRAT keeps RAT's fetch *priority* untouched (fewest correct-path
 * instructions first, same stable sort) and re-prices only the throttle
 * *gate*: each thread's correct-path population is weighted by its
 * *residual* exposure, in /256 fixed point so every decision is
 * integer-exact and deterministic:
 *
 *   order:   sort by cp(t) ascending (exactly RAT)
 *   gate:    throttle t when cp(t) * w256(t) >= cap * 256
 *   w256(t) = max(wOcc256(t), corr256(t))  in [1, 256]
 *
 * with two estimators, combined conservatively (never claim less
 * exposure than either one measured):
 *
 *  - wOcc256: the instantaneous occupancy-weighted mean of the static
 *    per-structure residual fractions (none 256/256, parity 32/256,
 *    SECDED and scrubbed SECDED 1/256) over the structures the thread
 *    occupies right now (IQ, ROB, LSQ data+tag, register file).
 *  - corr256: an epoch-refreshed measurement — every pratEpoch cycles
 *    the thread's cumulative residual / raw ACE bit-cycle ratio is read
 *    from the AVF ledger over the same structures, catching exposure the
 *    static floors miss (e.g. scrub intervals too long for the actual
 *    residency lengths).
 *
 * With nothing protected both estimators are exactly 256/256 (the ledger
 * conserves covered + residual == ACE), so the gate reduces to
 * cp >= cap and PRAT is bit-identical to RAT — the differential property
 * tests/test_policy_properties.cc pins. With everything SECDED the
 * weight floors at 1/256 and the gate threshold (cap * 256 correct-path
 * instructions) exceeds any reachable population: PRAT provably never
 * throttles and degenerates to RAT's base sort order.
 *
 * Because the weight reads the protection assignment, PRAT makes
 * protection *timing-affecting* — the one policy that breaks the
 * "protection is an accounting overlay" invariant. The checkpoint
 * fingerprint, the campaign shared-warmup grouping and the explorer's
 * pruning bound all special-case it (sim/journal.cc,
 * protect/explorer.cc).
 */

#ifndef SMTAVF_POLICY_PRAT_HH
#define SMTAVF_POLICY_PRAT_HH

#include <array>

#include "policy/fetch_policy.hh"

namespace smtavf
{

/** Protection-aware reliability throttling (RAT on residual exposure). */
class PRatPolicy : public FetchPolicy
{
  public:
    /**
     * @param ace_cap  correct-path instructions per thread above which an
     *        unprotected thread is gated (0 = the RAT default, 2 x a fair
     *        IQ share); protected threads gate at cap * 256 / w256
     * @param epoch    cycles between ledger-measured residual refreshes
     *        (must be positive; MachineConfig::validateMsg enforces it)
     */
    explicit PRatPolicy(PolicyContext &ctx, unsigned ace_cap = 0,
                        Cycle epoch = 4096);

    const std::vector<ThreadId> &fetchOrder(Cycle now) override;

    /** The epoch refresh and the throttle tally run in every call. */
    bool fetchOrderMutates() const override { return true; }

    unsigned aceCap() const { return aceCap_; }
    Cycle epoch() const { return epoch_; }

    /** Current residual-exposure weight of @p tid, in /256 fixed point. */
    unsigned weight256(ThreadId tid) const;

    /** Measured (epoch-refreshed) component of the weight, /256. */
    unsigned corr256(ThreadId tid) const { return corr256_[tid]; }

    /** Cumulative count of (thread, cycle) gate decisions — the throttle
     *  duty-cycle numerator the monotonicity property is stated over. */
    std::uint64_t throttledThreadCycles() const
    {
        return throttledThreadCycles_;
    }

    /**
     * Checkpoint hooks: the measured corrections and the absolute next
     * refresh cycle travel (the duty-cycle tally too, so diagnostics
     * survive a restore); the static weights are re-derived from the
     * restoring core's protection assignment, which the checkpoint
     * fingerprint guarantees identical (PRAT checkpoints — warmup
     * boundaries included — fold the assignment in).
     */
    void
    saveState(Serializer &ar) override
    {
        ar(corr256_);
        ar(nextRefresh_);
        ar(throttledThreadCycles_);
    }

    void
    loadState(Deserializer &ar) override
    {
        ar(corr256_);
        ar(nextRefresh_);
        ar(throttledThreadCycles_);
        deriveStaticWeights();
    }

  private:
    /** Structures whose occupancy prices a thread's in-flight exposure. */
    static constexpr std::array<HwStruct, 5> kStructs = {
        HwStruct::IQ, HwStruct::ROB, HwStruct::LsqData, HwStruct::LsqTag,
        HwStruct::RegFile};

    void deriveStaticWeights();
    void refreshCorrections();

    unsigned aceCap_;
    Cycle epoch_;
    Cycle nextRefresh_;
    /** Static residual fraction of each structure, /256 (in [1, 256]). */
    std::array<unsigned, numHwStructs> resid256_{};
    /** Measured cumulative residual/ACE ratio per thread, /256. Starts
     *  at 1 (the floor) so the static estimator governs until the first
     *  epoch lands; max() with wOcc can then only raise the weight. */
    std::array<unsigned, maxContexts> corr256_{};
    std::uint64_t throttledThreadCycles_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_POLICY_PRAT_HH
