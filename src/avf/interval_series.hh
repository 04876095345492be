/**
 * @file
 * Windowed AVF sampling: cut the measured window into fixed-length
 * windows and close a row per window recording the per-structure AVF and
 * residual AVF of exactly that window. The window unit is either
 *
 *  - cycles (`--sample N`, MachineConfig::avfSampleCycles): the
 *    microarchitecture vulnerability *phase behaviour* the authors study
 *    in their companion paper (Fu, Poe, Li & Fortes, MASCOTS 2006;
 *    reference [8] of the reproduced paper), or
 *  - committed instructions (`--avf-interval N`): windows line up across
 *    configurations doing the same work at different IPC, which is what
 *    sampled-AVF methodology wants.
 *
 * Windows are relative to the run's measured start: window 0 opens where
 * arm() is called — after warmup, or at the restore point of a restored
 * run (whose series covers only what it simulated itself) — and row
 * boundaries are absolute cycle and committed-instruction coordinates.
 *
 * Granularity note: the ledger books an interval's bit-cycles when the
 * interval *closes* (commit/squash/evict), so a long-latency residency
 * lands in the window where it resolves, and per-window values can
 * legitimately exceed 1 right after a long stall drains. The per-row
 * conservation identity is therefore over closed intervals: the sum of
 * every row's ACE bit-cycles equals the ledger's total at finish.
 */

#ifndef SMTAVF_AVF_INTERVAL_SERIES_HH
#define SMTAVF_AVF_INTERVAL_SERIES_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "avf/ledger.hh"

namespace smtavf
{

/** Per-window AVF rows, windowed by cycles or committed instructions. */
class AvfIntervalSeries
{
  public:
    /** What a window's length counts. */
    enum class Unit
    {
        Cycles,
        Instructions
    };

    /** One closed window. */
    struct Row
    {
        std::uint64_t index = 0;      ///< 0-based window number
        std::uint64_t startInstr = 0; ///< committed count at window open
        std::uint64_t endInstr = 0;   ///< committed count at window close
        Cycle startCycle = 0;
        Cycle endCycle = 0;
        std::array<std::uint64_t, numHwStructs> aceDelta{};
        std::array<std::uint64_t, numHwStructs> residualDelta{};
        std::array<double, numHwStructs> avf{};
        std::array<double, numHwStructs> residualAvf{};
    };

    /**
     * @param ledger   sampled ledger (read only until finish())
     * @param unit     what @p interval counts
     * @param interval window length (> 0)
     */
    AvfIntervalSeries(const AvfLedger &ledger, Unit unit,
                      std::uint64_t interval);

    /**
     * Start sampling: the measured window begins at @p committed /
     * @p now (call after warmup/restore, before the measured run).
     */
    void arm(std::uint64_t committed, Cycle now);

    /** Per-cycle check; closes a row at every boundary crossed. */
    void tick(std::uint64_t committed, Cycle now);

    /** Close the final (possibly partial) row. Call after finalizeAvf. */
    void finish(std::uint64_t committed, Cycle now);

    std::uint64_t interval() const { return interval_; }
    const std::vector<Row> &data() const { return rows_; }

    /** Coefficient-of-variation-like spread of a structure's phases. */
    double variability(HwStruct s) const;

    /** The whole series as CSV (header + one line per row). */
    std::string csv() const;

  private:
    /** The coordinate a window's length counts. */
    std::uint64_t
    position(std::uint64_t committed, Cycle now) const
    {
        return unit_ == Unit::Cycles ? now : committed;
    }

    void closeRow(std::uint64_t committed, Cycle now);

    const AvfLedger &ledger_;
    Unit unit_;
    std::uint64_t interval_;
    bool armed_ = false;
    std::uint64_t rowStartInstr_ = 0;
    Cycle rowStartCycle_ = 0;
    std::uint64_t nextBoundary_ = 0;
    std::array<std::uint64_t, numHwStructs> lastAce_{};
    std::array<std::uint64_t, numHwStructs> lastResidual_{};
    std::vector<Row> rows_;
};

} // namespace smtavf

#endif // SMTAVF_AVF_INTERVAL_SERIES_HH
