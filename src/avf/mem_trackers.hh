/**
 * @file
 * AVF trackers for address-based structures (Biswas et al., ISCA-32):
 * the DL1 data array at per-byte granularity, the DL1 tag array, and the
 * TLBs. They observe the cache/TLB models through the observer interfaces
 * and emit classified residency intervals straight to the ledger.
 *
 * Classification rules:
 *  - data byte: an interval that *ends in a read* is ACE (the value was
 *    consumed); one that ends in an overwrite or clean eviction is un-ACE;
 *    a dirty byte's final interval is ACE through eviction (the value must
 *    survive writeback).
 *  - tag: live tag bits participate in every lookup of the set, so a dirty
 *    line's tag is ACE for its entire residency and a clean line's tag is
 *    ACE up to its last access (the tail until eviction is un-ACE). This
 *    is what makes DL1-tag AVF exceed DL1-data AVF in the paper: only the
 *    referenced bytes of a block are ACE, but all its tag bits are.
 *  - TLB entry: ACE between uses, un-ACE from last use to eviction.
 */

#ifndef SMTAVF_AVF_MEM_TRACKERS_HH
#define SMTAVF_AVF_MEM_TRACKERS_HH

#include <cstdint>
#include <string>

#include "avf/ledger.hh"
#include "base/arena.hh"
#include "ckpt/serializer.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace smtavf
{

/** Per-byte data-array plus tag-array AVF tracking for one cache. */
class CacheVulnTracker : public CacheObserver
{
  public:
    /**
     * @param cache       the cache to observe (registers itself)
     * @param ledger      interval destination
     * @param data_struct ledger id for the data array
     * @param tag_struct  ledger id for the tag array
     * @param per_byte    track data liveness per byte (true, the paper's
     *                    model) or per whole line (the DESIGN.md ablation)
     */
    CacheVulnTracker(Cache &cache, AvfLedger &ledger, HwStruct data_struct,
                     HwStruct tag_struct, bool per_byte = true);

    void onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
                Cycle now) override;
    void onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
                  bool is_write, ThreadId tid, Cycle now) override;
    void onEvict(std::uint32_t slot, bool dirty, Cycle now) override;

    /** Tag bits modelled per line (address tag + valid/dirty/LRU state). */
    std::uint32_t tagBitsPerLine() const { return tagBits_; }

    /** Worker-reuse hook: exact post-construction state, allocation-free. */
    void
    reset()
    {
        lines_.assign(lines_.size(), LineState{});
        units_.assign(units_.size(), 0);
    }

    /**
     * Checkpoint hook: the open residency intervals (absolute cycles; the
     * restored clock continues from the same value, so they close with
     * identical spans). Geometry is reconstructed from the cache config.
     * Units travel as a u64 count, then per unit its `since` (u64) and
     * dirty flag (u8); loading rejects a count other than this cache's
     * and a `since` that does not fit the packed word.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lines_);
        std::uint64_t count = units_.size();
        ar(count);
        if (count != units_.size())
            throw CheckpointError("cache tracker state for " +
                                  std::to_string(count) + " units, cache has " +
                                  std::to_string(units_.size()));
        for (std::uint64_t &unit : units_) {
            Cycle since = unit & kSinceMask;
            bool dirty = (unit & kDirty) != 0;
            ar(since);
            ar(dirty);
            if constexpr (Ar::loading) {
                if (since & kDirty)
                    throw CheckpointError("cache tracker unit opened at "
                                          "cycle " + std::to_string(since) +
                                          ", beyond the packed range");
                unit = since | (dirty ? kDirty : 0);
            }
        }
    }

  private:
    /**
     * One tracked unit (a byte, or a whole line in per-line mode) packed
     * in a u64: bits 0-62 hold `since`, the cycle its open interval
     * began; bit 63 is its dirty flag. The flag sits where
     * AvfLedger::addIntervals() reads an entry's ACE flag, because a
     * unit's interval closed by eviction is ACE exactly when it is dirty:
     * a line's units go to the ledger as they are.
     */
    static constexpr std::uint64_t kDirty = AvfLedger::kAceFlag;
    static constexpr std::uint64_t kSinceMask = AvfLedger::kStartMask;

    struct LineState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle fillCycle = 0;
        Cycle lastAccess = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(fillCycle);
            ar(lastAccess);
            ar(dirty);
        }
    };

    AvfLedger &ledger_;
    HwStruct dataStruct_;
    HwStruct tagStruct_;
    std::uint32_t lineBytes_;
    /** Tracking granule: 1 byte (per-byte mode) or the whole line. */
    std::uint32_t granBytes_;
    std::uint32_t unitsPerLine_;
    /** Data bits of one unit. */
    std::uint32_t unitBits_;
    std::uint32_t tagBits_;
    AVec<LineState> lines_;
    AVec<std::uint64_t> units_; ///< lines x unitsPerLine, flattened
};

/** TLB entry residency AVF tracking. */
class TlbVulnTracker : public TlbObserver
{
  public:
    TlbVulnTracker(Tlb &tlb, AvfLedger &ledger, HwStruct structure);

    void onFill(std::uint32_t slot, ThreadId tid, Cycle now) override;
    void onHit(std::uint32_t slot, ThreadId tid, Cycle now) override;
    void onEvict(std::uint32_t slot, Cycle now) override;

    /** Worker-reuse hook: exact post-construction state, allocation-free. */
    void reset() { entries_.assign(entries_.size(), EntryState{}); }

    /** Checkpoint hook (see CacheVulnTracker::serialize). */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(entries_);
    }

  private:
    struct EntryState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle last = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(last);
        }
    };

    AvfLedger &ledger_;
    HwStruct struct_;
    AVec<EntryState> entries_;
};

} // namespace smtavf

#endif // SMTAVF_AVF_MEM_TRACKERS_HH
