/**
 * @file
 * Per-thread reorder buffer (Table 1: 96 entries per thread). Holds
 * in-flight instructions in program order; the head commits in order, the
 * tail is walked backwards on a squash.
 */

#ifndef SMTAVF_CORE_ROB_HH
#define SMTAVF_CORE_ROB_HH

#include "base/ring_buffer.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** One thread's reorder buffer. */
class Rob
{
  public:
    explicit Rob(std::uint32_t capacity);

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /** Append at the tail (program order). */
    void push(DynInstr *in);

    /** Oldest entry, or nullptr when empty. */
    DynInstr *front() const { return empty() ? nullptr : entries_.front(); }

    /** Retire the oldest entry. */
    void popFront();

    /**
     * Remove every instruction with seq > @p seq, youngest first, invoking
     * @p undo on each (rename-map walk-back, resource release, AVF
     * classification happen in the callback).
     */
    template <typename Undo>
    void
    squashAfter(SeqNum seq, Undo &&undo)
    {
        while (!entries_.empty() && entries_.back()->seq > seq) {
            undo(entries_.back());
            entries_.pop_back();
        }
    }

    /** Iterate oldest to youngest. */
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

    /** Empty the ring, capacity retained (SmtCore::clearInFlight). */
    void reset() { entries_.reset(); }

  private:
    std::uint32_t capacity_;
    /** Ring sized to capacity up front: no allocation after construction. */
    RingBuffer<DynInstr *> entries_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_ROB_HH
