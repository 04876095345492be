/**
 * @file
 * The shared issue/instruction queue (Table 1: 96 entries shared by all
 * contexts). Instructions wait here from dispatch until their operands are
 * ready and a function unit is available; oldest-first (global dispatch
 * order) selection.
 *
 * Its AVF is the paper's headline hotspot: multithreading keeps the queue
 * full of ACE bits waiting on operands, and memory-bound threads stretch
 * that residency across L2-miss latencies.
 */

#ifndef SMTAVF_CORE_IQ_HH
#define SMTAVF_CORE_IQ_HH

#include <cstdint>

#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Shared issue queue ordered by global dispatch age. */
class IssueQueue
{
  public:
    /**
     * The physical registers an entry waits on: srcPhys1 and, unless the
     * entry is a store, srcPhys2. A store issues (generates its address)
     * once the address operand is ready; its data only has to arrive by
     * commit, which in-order commit of the older producer guarantees.
     * invalidReg when there is nothing to wait for.
     */
    struct WakeupKeys
    {
        RegIndex src1;
        RegIndex src2;
    };

    explicit IssueQueue(std::uint32_t capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }
    std::uint32_t freeSlots() const
    {
        return capacity_ - static_cast<std::uint32_t>(entries_.size());
    }

    /** Insert at the tail (callers dispatch in global age order). */
    void insert(DynInstr *in);

    /** Remove one entry (a squash). */
    void remove(const DynInstr *in);

    /**
     * Wakeup: write the positions of the entries whose keys are both
     * ready in @p ready (indexed by physical register, invalidReg
     * included; PhysRegFile::readyByPhys) to @p out, oldest first, and
     * return how many. Reads only the key array, without a branch per
     * entry; @p out needs room for capacity() positions.
     */
    std::uint32_t
    wakeup(const std::uint8_t *ready, std::uint32_t *out) const
    {
        std::uint32_t n = 0;
        const std::uint32_t size = static_cast<std::uint32_t>(keys_.size());
        for (std::uint32_t i = 0; i < size; ++i) {
            out[n] = i;
            n += ready[keys_[i].src1] & ready[keys_[i].src2];
        }
        return n;
    }

    /** The entry at @p pos (0 = oldest). */
    DynInstr *at(std::uint32_t pos) const { return entries_[pos]; }

    /** The wakeup keys of the entry at @p pos (invariant checker). */
    WakeupKeys keysAt(std::uint32_t pos) const { return keys_[pos]; }

    /**
     * Remove the entries at the @p n strictly ascending positions
     * @p pos in one stable compaction pass: survivors keep their age
     * order, and only the removed records are touched.
     */
    void removeAt(const std::uint32_t *pos, std::uint32_t n);

    /** Worker-reuse hook: empty the queue, capacity retained. */
    void
    reset()
    {
        entries_.clear();
        keys_.clear();
    }

    /** Oldest-first iteration. */
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    std::uint32_t capacity_;
    /**
     * Flat age-ordered storage (oldest at index 0), with each entry's
     * wakeup keys at the same index in keys_. Entries are inserted at
     * the tail in global dispatch order and leave by a stable
     * compaction (removeAt, remove), inside one contiguous allocation
     * reserved for the life of the core.
     */
    AVec<DynInstr *> entries_;
    AVec<WakeupKeys> keys_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_IQ_HH
