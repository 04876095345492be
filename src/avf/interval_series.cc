#include "avf/interval_series.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace smtavf
{

AvfIntervalSeries::AvfIntervalSeries(const AvfLedger &ledger, Unit unit,
                                     std::uint64_t interval)
    : ledger_(ledger), unit_(unit), interval_(interval)
{
    if (interval == 0)
        SMTAVF_FATAL("zero AVF sampling interval");
}

void
AvfIntervalSeries::arm(std::uint64_t committed, Cycle now)
{
    if (armed_)
        SMTAVF_FATAL("AvfIntervalSeries armed twice");
    armed_ = true;
    rowStartInstr_ = committed;
    rowStartCycle_ = now;
    nextBoundary_ = position(committed, now) + interval_;
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        lastAce_[s] = ledger_.aceBitCycles(hs);
        lastResidual_[s] = ledger_.residualAceBitCycles(hs);
    }
}

void
AvfIntervalSeries::closeRow(std::uint64_t committed, Cycle now)
{
    Row row;
    row.index = rows_.size();
    row.startInstr = rowStartInstr_;
    row.endInstr = committed;
    row.startCycle = rowStartCycle_;
    row.endCycle = now;
    Cycle span = now > rowStartCycle_ ? now - rowStartCycle_ : 0;
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        std::uint64_t ace = ledger_.aceBitCycles(hs);
        std::uint64_t residual = ledger_.residualAceBitCycles(hs);
        row.aceDelta[s] = ace - lastAce_[s];
        row.residualDelta[s] = residual - lastResidual_[s];
        lastAce_[s] = ace;
        lastResidual_[s] = residual;
        std::uint64_t bits = ledger_.structureBits(hs);
        double denom = static_cast<double>(bits) * static_cast<double>(span);
        row.avf[s] = denom > 0 ? row.aceDelta[s] / denom : 0.0;
        row.residualAvf[s] =
            denom > 0 ? row.residualDelta[s] / denom : 0.0;
    }
    rows_.push_back(row);
    rowStartInstr_ = committed;
    rowStartCycle_ = now;
}

void
AvfIntervalSeries::tick(std::uint64_t committed, Cycle now)
{
    if (!armed_)
        return;
    // A window closes exactly at its boundary: a cycle window at the
    // boundary cycle, an instruction window at the boundary count in the
    // cycle whose commits crossed it.
    while (position(committed, now) >= nextBoundary_) {
        if (unit_ == Unit::Cycles)
            closeRow(committed, nextBoundary_);
        else
            closeRow(nextBoundary_, now);
        nextBoundary_ += interval_;
    }
}

void
AvfIntervalSeries::finish(std::uint64_t committed, Cycle now)
{
    if (!armed_)
        SMTAVF_FATAL("AvfIntervalSeries finish before arm");
    // The final partial window also sweeps up the end-of-run tallies
    // (finalizeAvf closes every open residency into it).
    if (position(committed, now) >
            position(rowStartInstr_, rowStartCycle_) ||
        rows_.empty())
        closeRow(committed, now);
    armed_ = false;
}

double
AvfIntervalSeries::variability(HwStruct s) const
{
    if (rows_.size() < 2)
        return 0.0;
    const auto i = static_cast<std::size_t>(s);
    double sum = 0.0, sq = 0.0;
    for (const auto &row : rows_) {
        sum += row.avf[i];
        sq += row.avf[i] * row.avf[i];
    }
    double n = static_cast<double>(rows_.size());
    double mean = sum / n;
    if (mean <= 0.0)
        return 0.0;
    double var = sq / n - mean * mean;
    return std::sqrt(var < 0 ? 0 : var) / mean;
}

std::string
AvfIntervalSeries::csv() const
{
    std::ostringstream os;
    os << "window,start_instr,end_instr,start_cycle,end_cycle";
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        auto hs = static_cast<HwStruct>(s);
        os << ",avf_" << hwStructName(hs) << ",ravf_" << hwStructName(hs);
    }
    os << "\n";
    os << std::setprecision(9);
    for (const auto &row : rows_) {
        os << row.index << ',' << row.startInstr << ',' << row.endInstr
           << ',' << row.startCycle << ',' << row.endCycle;
        for (std::size_t s = 0; s < numHwStructs; ++s)
            os << ',' << row.avf[s] << ',' << row.residualAvf[s];
        os << "\n";
    }
    return os.str();
}

} // namespace smtavf
