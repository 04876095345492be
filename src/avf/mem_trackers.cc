#include "avf/mem_trackers.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "base/logging.hh"

namespace smtavf
{

CacheVulnTracker::CacheVulnTracker(Cache &cache, AvfLedger &ledger,
                                   HwStruct data_struct, HwStruct tag_struct,
                                   bool per_byte)
    : ledger_(ledger), dataStruct_(data_struct), tagStruct_(tag_struct),
      lineBytes_(cache.config().lineBytes),
      granBytes_(per_byte ? 1 : cache.config().lineBytes),
      unitsPerLine_(lineBytes_ / granBytes_),
      unitBits_(granBytes_ * bits::cacheByte)
{
    auto lines = cache.numLines();
    lines_.resize(lines);
    units_.resize(static_cast<std::size_t>(lines) * unitsPerLine_);

    // 48-bit physical tag minus index/offset bits, plus valid/dirty/LRU.
    std::uint32_t offset_bits = std::countr_zero(lineBytes_);
    std::uint32_t index_bits = std::countr_zero(cache.numSets());
    tagBits_ = 48 - offset_bits - index_bits + 4;

    ledger_.setStructureBits(dataStruct_,
                             static_cast<std::uint64_t>(lines) * lineBytes_ *
                                 bits::cacheByte);
    ledger_.setStructureBits(tagStruct_,
                             static_cast<std::uint64_t>(lines) * tagBits_);
    cache.setObserver(this);
}

void
CacheVulnTracker::onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
                         Cycle now)
{
    (void)line_addr;
    auto &line = lines_.at(slot);
    if (line.valid)
        SMTAVF_PANIC("fill into a live tracked line (missing eviction)");
    line = {true, tid, now, now, false};
    // Every unit opens a clean interval at the fill.
    std::fill_n(units_.begin() + static_cast<std::size_t>(slot) *
                                     unitsPerLine_,
                unitsPerLine_, now);
}

void
CacheVulnTracker::onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
                           bool is_write, ThreadId tid, Cycle now)
{
    (void)tid;
    auto &line = lines_.at(slot);
    if (!line.valid)
        SMTAVF_PANIC("access to an invalid tracked line");
    line.lastAccess = now;
    if (is_write)
        line.dirty = true;

    std::uint32_t off = static_cast<std::uint32_t>(addr) &
                        (lineBytes_ - 1);
    std::uint32_t first = off / granBytes_;
    std::uint32_t last = (off + size + granBytes_ - 1) / granBytes_;
    if (last > unitsPerLine_)
        last = unitsPerLine_;

    // An interval ending in a read carried a consumed value: ACE. One
    // ending in an overwrite was never needed again: un-ACE. The touched
    // units close together, in batches of up to an 8-byte access.
    std::uint64_t *unit = units_.data() +
                          static_cast<std::size_t>(slot) * unitsPerLine_;
    const std::uint64_t ace = is_write ? 0 : AvfLedger::kAceFlag;
    std::uint64_t closing[8];
    for (std::uint32_t b = first; b < last;) {
        std::size_t n = 0;
        for (; b < last && n < std::size(closing); ++b, ++n)
            closing[n] = (unit[b] & kSinceMask) | ace;
        ledger_.addIntervals(dataStruct_, line.tid, unitBits_, closing, n,
                             now);
    }
    // Each touched unit reopens at now; a write also makes it dirty.
    const std::uint64_t keep = is_write ? 0 : kDirty;
    const std::uint64_t set = now | (is_write ? kDirty : 0);
    for (std::uint32_t b = first; b < last; ++b)
        unit[b] = (unit[b] & keep) | set;
}

void
CacheVulnTracker::onEvict(std::uint32_t slot, bool dirty, Cycle now)
{
    auto &line = lines_.at(slot);
    if (!line.valid)
        SMTAVF_PANIC("evicting an invalid tracked line");

    // Dirty units must survive to the writeback; clean tails are dead.
    // A unit's dirty bit is its ACE flag, so the line closes in one call.
    ledger_.addIntervals(dataStruct_, line.tid, unitBits_,
                         units_.data() + static_cast<std::size_t>(slot) *
                                             unitsPerLine_,
                         unitsPerLine_, now);

    if (dirty || line.dirty) {
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.fillCycle,
                            now, true);
    } else {
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.fillCycle,
                            line.lastAccess, true);
        ledger_.addInterval(tagStruct_, line.tid, tagBits_, line.lastAccess,
                            now, false);
    }
    line.valid = false;
}

TlbVulnTracker::TlbVulnTracker(Tlb &tlb, AvfLedger &ledger,
                               HwStruct structure)
    : ledger_(ledger), struct_(structure)
{
    entries_.resize(tlb.config().entries);
    ledger_.setStructureBits(structure,
                             static_cast<std::uint64_t>(
                                 tlb.config().entries) * bits::tlbEntry);
    tlb.setObserver(this);
}

void
TlbVulnTracker::onFill(std::uint32_t slot, ThreadId tid, Cycle now)
{
    entries_.at(slot) = {true, tid, now};
}

void
TlbVulnTracker::onHit(std::uint32_t slot, ThreadId tid, Cycle now)
{
    (void)tid;
    auto &e = entries_.at(slot);
    if (!e.valid)
        SMTAVF_PANIC("TLB hit on invalid tracked entry");
    ledger_.addInterval(struct_, e.tid, bits::tlbEntry, e.last, now, true);
    e.last = now;
}

void
TlbVulnTracker::onEvict(std::uint32_t slot, Cycle now)
{
    auto &e = entries_.at(slot);
    if (!e.valid)
        SMTAVF_PANIC("TLB eviction of invalid tracked entry");
    ledger_.addInterval(struct_, e.tid, bits::tlbEntry, e.last, now, false);
    e.valid = false;
}

} // namespace smtavf
