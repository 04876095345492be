#include "avf/ledger.hh"

#include <stdexcept>

#include "base/logging.hh"

namespace smtavf
{

AvfLedger::AvfLedger(unsigned num_threads)
    : numThreads_(num_threads)
{
    if (num_threads == 0 || num_threads > maxContexts)
        SMTAVF_FATAL("ledger thread count out of range: ", num_threads);
    applyProtection(ProtectionConfig{});
}

void
AvfLedger::setProtection(const ProtectionConfig &protection)
{
    if (auto msg = protection.validateMsg(); !msg.empty())
        SMTAVF_FATAL("invalid protection config: ", msg);
    for (std::size_t i = 0; i < ace_.size(); ++i)
        if (ace_[i] != 0 || unAce_[i] != 0)
            SMTAVF_FATAL("setProtection after intervals were recorded in ",
                         hwStructName(static_cast<HwStruct>(i / maxContexts)));
    applyProtection(protection);
}

void
AvfLedger::applyProtection(const ProtectionConfig &protection)
{
    protection_ = protection;
    for (std::size_t s = 0; s < numHwStructs; ++s) {
        scheme_[s] = protection.schemeFor(static_cast<HwStruct>(s));
        scrub_[s] = protection.scrubIntervalFor(static_cast<HwStruct>(s));
    }
}

void
AvfLedger::setStructureBits(HwStruct s, std::uint64_t total_bits,
                            std::uint64_t per_thread_bits)
{
    if (total_bits == 0)
        SMTAVF_FATAL("structure ", hwStructName(s), " with zero bits");
    structBits_[idx(s)] = total_bits;
    perThreadBits_[idx(s)] = per_thread_bits ? per_thread_bits : total_bits;
}

void
AvfLedger::backwardsInterval(HwStruct s, Cycle start, Cycle end)
{
    SMTAVF_PANIC("interval ends before it starts: ", start, " .. ", end,
                 " in ", hwStructName(s));
}

void
AvfLedger::backwardsIntervals(HwStruct s, const std::uint64_t *entries,
                              std::size_t n, Cycle end)
{
    for (std::size_t k = 0; k < n; ++k)
        if ((entries[k] & kStartMask) > end)
            backwardsInterval(s, entries[k] & kStartMask, end);
    SMTAVF_PANIC("interval end ", end, " beyond the packed cycle range in ",
                 hwStructName(s));
}

void
AvfLedger::unknownThread(ThreadId tid)
{
    SMTAVF_PANIC("interval from unknown thread ", tid);
}

void
AvfLedger::overCovered(HwStruct s, std::uint64_t covered,
                       std::uint64_t bit_cycles)
{
    SMTAVF_PANIC("protection covers ", covered, " of ", bit_cycles,
                 " bit-cycles in ", hwStructName(s));
}

void
AvfLedger::checkThread(ThreadId tid) const
{
    if (tid >= numThreads_)
        throw std::out_of_range("ledger thread " + std::to_string(tid) +
                                " of " + std::to_string(numThreads_));
}

void
AvfLedger::finalize(Cycle total_cycles)
{
    if (total_cycles == 0)
        SMTAVF_FATAL("finalize with zero cycles");
    if (total_cycles <= baseCycle_)
        SMTAVF_FATAL("finalize at cycle ", total_cycles,
                     " inside the warmup window (boundary ", baseCycle_, ")");
    // The AVF denominator is the measured window only: warmup cycles
    // contributed no tallies (resetTallies zeroed them), so they must not
    // dilute the average either.
    totalCycles_ = total_cycles - baseCycle_;
    finalized_ = true;
}

void
AvfLedger::resetTallies(Cycle boundary)
{
    if (finalized_)
        SMTAVF_FATAL("resetTallies after finalize");
    ace_.fill(0);
    unAce_.fill(0);
    aceCovered_.fill(0);
    aceResidual_.fill(0);
    baseCycle_ = boundary;
}

namespace
{

std::uint64_t
sumThreads(const std::uint64_t *row, unsigned threads)
{
    std::uint64_t sum = 0;
    for (unsigned t = 0; t < threads; ++t)
        sum += row[t];
    return sum;
}

} // namespace

std::uint64_t
AvfLedger::aceBitCycles(HwStruct s) const
{
    return sumThreads(&ace_[at(s, 0)], numThreads_);
}

std::uint64_t
AvfLedger::aceBitCycles(HwStruct s, ThreadId tid) const
{
    checkThread(tid);
    return ace_[at(s, tid)];
}

std::uint64_t
AvfLedger::unAceBitCycles(HwStruct s) const
{
    return sumThreads(&unAce_[at(s, 0)], numThreads_);
}

std::uint64_t
AvfLedger::coveredAceBitCycles(HwStruct s) const
{
    return sumThreads(&aceCovered_[at(s, 0)], numThreads_);
}

std::uint64_t
AvfLedger::coveredAceBitCycles(HwStruct s, ThreadId tid) const
{
    checkThread(tid);
    return aceCovered_[at(s, tid)];
}

std::uint64_t
AvfLedger::residualAceBitCycles(HwStruct s) const
{
    return sumThreads(&aceResidual_[at(s, 0)], numThreads_);
}

std::uint64_t
AvfLedger::residualAceBitCycles(HwStruct s, ThreadId tid) const
{
    checkThread(tid);
    return aceResidual_[at(s, tid)];
}

std::uint64_t
AvfLedger::structureBits(HwStruct s) const
{
    return structBits_[idx(s)];
}

double
AvfLedger::avf(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("avf() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return static_cast<double>(aceBitCycles(s)) /
           (static_cast<double>(bits) * static_cast<double>(totalCycles_));
}

double
AvfLedger::residualAvf(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("residualAvf() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return static_cast<double>(residualAceBitCycles(s)) /
           (static_cast<double>(bits) * static_cast<double>(totalCycles_));
}

double
AvfLedger::threadAvf(HwStruct s, ThreadId tid) const
{
    if (!finalized_)
        SMTAVF_PANIC("threadAvf() before finalize()");
    auto bits = perThreadBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return static_cast<double>(aceBitCycles(s, tid)) /
           (static_cast<double>(bits) * static_cast<double>(totalCycles_));
}

double
AvfLedger::occupancy(HwStruct s) const
{
    if (!finalized_)
        SMTAVF_PANIC("occupancy() before finalize()");
    auto bits = structBits_[idx(s)];
    if (bits == 0)
        return 0.0;
    return static_cast<double>(aceBitCycles(s) + unAceBitCycles(s)) /
           (static_cast<double>(bits) * static_cast<double>(totalCycles_));
}

} // namespace smtavf
