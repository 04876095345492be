#include "core/regfile.hh"

#include "base/logging.hh"

namespace smtavf
{

PhysRegFile::PhysRegFile(std::uint32_t num_int, std::uint32_t num_fp,
                         AvfLedger &ledger, bool alloc_unace,
                         bool dead_aware)
    : numInt_(num_int), numFp_(num_fp), freeInt_(num_int), freeFp_(num_fp),
      regs_(num_int + num_fp), ready_(num_int + num_fp + 1),
      ledger_(ledger), allocUnace_(alloc_unace), deadAware_(dead_aware)
{
    if (num_int == 0 || num_fp == 0)
        SMTAVF_FATAL("register pool needs both int and fp registers");
    clearReady();
    freeIntList_.reserve(num_int);
    freeFpList_.reserve(num_fp);
    // Pop from the back; seed so low indices come out first.
    for (std::uint32_t i = 0; i < num_int; ++i)
        freeIntList_.push_back(static_cast<RegIndex>(num_int - 1 - i));
    for (std::uint32_t i = 0; i < num_fp; ++i)
        freeFpList_.push_back(
            static_cast<RegIndex>(num_int + num_fp - 1 - i));
    ledger_.setStructureBits(HwStruct::RegFile, totalBits());
}

void
PhysRegFile::reset()
{
    freeInt_ = numInt_;
    freeFp_ = numFp_;
    allocatedBy_.fill(0);
    regs_.assign(regs_.size(), Reg{});
    clearReady();
    freeIntList_.clear();
    freeFpList_.clear();
    // Same seeding as the constructor: pop from the back, low indices first.
    for (std::uint32_t i = 0; i < numInt_; ++i)
        freeIntList_.push_back(static_cast<RegIndex>(numInt_ - 1 - i));
    for (std::uint32_t i = 0; i < numFp_; ++i)
        freeFpList_.push_back(
            static_cast<RegIndex>(numInt_ + numFp_ - 1 - i));
    ledger_.setStructureBits(HwStruct::RegFile, totalBits());
}

void
PhysRegFile::clearReady()
{
    ready_.assign(ready_.size(), 0);
    ready_[0] = 1; // invalidReg
}

std::uint64_t
PhysRegFile::totalBits() const
{
    return static_cast<std::uint64_t>(numInt_ + numFp_) * bits::physReg;
}

RegIndex
PhysRegFile::alloc(bool fp, ThreadId tid, Cycle now)
{
    auto &free_list = fp ? freeFpList_ : freeIntList_;
    auto &free_count = fp ? freeFp_ : freeInt_;
    if (free_list.empty())
        return invalidReg;
    RegIndex phys = free_list.back();
    free_list.pop_back();
    --free_count;

    auto &r = regs_.at(phys);
    if (r.allocated)
        SMTAVF_PANIC("allocating an already-allocated register ", phys);
    r = {true, tid, now, now, now};
    ready_[phys + 1] = 0;
    ++allocatedBy_[tid];
    return phys;
}

void
PhysRegFile::markWritten(RegIndex phys, Cycle now)
{
    auto &r = regs_.at(phys);
    if (!r.allocated)
        SMTAVF_PANIC("writeback to unallocated register ", phys);
    ready_[phys + 1] = 1;
    r.wbCycle = now;
    r.lastRead = now;
}

void
PhysRegFile::noteRead(RegIndex phys, Cycle read_cycle)
{
    if (phys == invalidReg)
        return;
    auto &r = regs_.at(phys);
    if (!r.allocated)
        return; // reads of long-released committed state: nothing to track
    if (read_cycle > r.lastRead)
        r.lastRead = read_cycle;
}

void
PhysRegFile::emitIntervals(RegIndex phys, Cycle now, bool producer_dead,
                           bool squashed)
{
    const Reg &r = regs_[phys];
    if (squashed || !isReady(phys)) {
        // Never carried committed data: the whole residency is un-ACE.
        ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                            r.allocCycle, now, false);
        return;
    }

    // Allocation-to-writeback window: un-ACE (a strike is overwritten),
    // unless the ablation disables the refinement.
    ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                        r.allocCycle, r.wbCycle, !allocUnace_);

    if (!deadAware_) {
        // Conservative: the committed value is architected state until
        // overwritten; without dead-code analysis the dead tail is
        // unknowable, so the whole window counts ACE.
        ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                            r.wbCycle, now, true);
        return;
    }

    Cycle value_end = r.lastRead > now ? now : r.lastRead;
    if (producer_dead) {
        ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                            r.wbCycle, now, false);
    } else {
        ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                            r.wbCycle, value_end, true);
        ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                            value_end, now, false);
    }
}

void
PhysRegFile::freeReg(RegIndex phys)
{
    auto &r = regs_[phys];
    --allocatedBy_[r.tid];
    r.allocated = false;
    ready_[phys + 1] = 0;
    bool fp = static_cast<std::uint32_t>(phys) >= numInt_;
    if (fp) {
        freeFpList_.push_back(phys);
        ++freeFp_;
    } else {
        freeIntList_.push_back(phys);
        ++freeInt_;
    }
}

void
PhysRegFile::release(RegIndex phys, Cycle now, bool producer_dead)
{
    if (!regs_.at(phys).allocated)
        SMTAVF_PANIC("releasing unallocated register ", phys);
    emitIntervals(phys, now, producer_dead, false);
    freeReg(phys);
}

void
PhysRegFile::releaseSquashed(RegIndex phys, Cycle now)
{
    if (!regs_.at(phys).allocated)
        SMTAVF_PANIC("squash-releasing unallocated register ", phys);
    emitIntervals(phys, now, false, true);
    freeReg(phys);
}

void
PhysRegFile::finalizeAll(Cycle now)
{
    for (std::size_t i = 0; i < regs_.size(); ++i) {
        auto &r = regs_[i];
        if (!r.allocated)
            continue;
        if (ready_[i + 1]) {
            if (allocUnace_)
                ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                                    r.allocCycle, r.wbCycle, false);
            else
                ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                                    r.allocCycle, r.wbCycle, true);
            // Committed/live values at end of run: conservatively ACE.
            ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                                r.wbCycle, now, true);
        } else {
            ledger_.addInterval(HwStruct::RegFile, r.tid, bits::physReg,
                                r.allocCycle, now, false);
        }
        r.allocated = false;
    }
    allocatedBy_.fill(0);
}

} // namespace smtavf
