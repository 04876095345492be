/**
 * @file
 * Gshare conditional-branch direction predictor (2K-entry table of 2-bit
 * saturating counters indexed by PC xor 10-bit global history, per the
 * paper's Table 1; each hardware thread owns a private instance).
 */

#ifndef SMTAVF_BRANCH_GSHARE_HH
#define SMTAVF_BRANCH_GSHARE_HH

#include <cstdint>
#include <vector>

#include "base/arena.hh"
#include "base/types.hh"

namespace smtavf
{

/** Gshare direction predictor with speculative history and recovery. */
class Gshare
{
  public:
    /**
     * @param table_entries number of 2-bit counters (power of two)
     * @param history_bits  global-history length
     */
    Gshare(std::uint32_t table_entries, std::uint32_t history_bits);

    /** Predict the direction of the branch at @p pc (no state change). */
    bool predict(Addr pc) const;

    /**
     * Speculatively shift @p taken into the global history (call at fetch
     * with the *predicted* direction). Returns the pre-update history so
     * the caller can restore it on a squash.
     */
    std::uint32_t speculate(bool taken);

    /** Restore the global history saved by speculate(). */
    void restoreHistory(std::uint32_t history);

    /**
     * Train the counters with the resolved outcome. @p history is the
     * history the prediction was made under.
     */
    void update(Addr pc, bool taken, std::uint32_t history);

    /** Current (speculative) global history. */
    std::uint32_t history() const { return history_; }

    /** Checkpoint hook: mutable state only (geometry is config-derived). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(table_);
        ar(history_);
    }

  private:
    std::uint32_t index(Addr pc, std::uint32_t history) const;

    AVec<std::uint8_t> table_;
    std::uint32_t mask_;
    std::uint32_t historyBits_;
    std::uint32_t historyMask_;
    std::uint32_t history_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_BRANCH_GSHARE_HH
