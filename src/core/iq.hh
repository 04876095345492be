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

#include <vector>

#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Shared issue queue ordered by global dispatch age. */
class IssueQueue
{
  public:
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

    /** Remove an issued instruction. */
    void remove(const DynInstr *in);

    /**
     * Remove every entry whose issued flag is set, in one stable
     * compaction pass. Entries leave the queue the cycle they issue, so
     * the flagged entries are exactly the ones the select stage just
     * picked — this replaces K O(n) shifting erases with one O(n) sweep
     * on the hottest per-cycle path.
     */
    void removeIssued();

    /** Worker-reuse hook: empty the queue, capacity retained. */
    void reset() { entries_.clear(); }

    /** Oldest-first iteration for the select stage. */
    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

  private:
    std::uint32_t capacity_;
    /**
     * Flat age-ordered storage (oldest at index 0). Entries are inserted
     * at the tail in global dispatch order and removed by a shifting
     * erase, which keeps iteration identical to the former
     * std::list-based queue while staying in one contiguous, reserved
     * allocation for the life of the core.
     */
    AVec<DynInstr *> entries_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_IQ_HH
