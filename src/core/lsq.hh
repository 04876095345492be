/**
 * @file
 * Per-thread load/store queue (Table 1: 48 entries per thread). Provides
 * conservative memory disambiguation (a load may issue only once every
 * older store of its thread has executed its address/data) and
 * store-to-load forwarding.
 */

#ifndef SMTAVF_CORE_LSQ_HH
#define SMTAVF_CORE_LSQ_HH

#include "base/ring_buffer.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** One thread's combined load/store queue. */
class Lsq
{
  public:
    explicit Lsq(std::uint32_t capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /** Append at dispatch (program order). */
    void push(DynInstr *in);

    /** Remove the committing instruction (must be the oldest). */
    void popCommitted(const DynInstr *in);

    /** Remove squashed entries with seq > @p seq. */
    void squashAfter(SeqNum seq);

    /**
     * Disambiguation test: true when every store older than @p load has
     * issued (addresses and data known). One sequence-number compare
     * against the oldest unissued store, found by moving a cursor
     * lazily past issued stores and non-stores: stores only ever become
     * issued, so the cursor passes each entry once between commits.
     */
    bool
    loadMayIssue(const DynInstr *load)
    {
        while (cursor_ < entries_.size() &&
               (entries_[cursor_]->op != OpClass::Store ||
                entries_[cursor_]->issued))
            ++cursor_;
        return cursor_ == entries_.size() ||
               entries_[cursor_]->seq > load->seq;
    }

    /**
     * Forwarding test: true when an issued store older than the load
     * overlaps its bytes and so supplies the data directly (no cache
     * access needed). The select stage asks only after loadMayIssue, so
     * every older store has issued and the first overlap decides.
     */
    bool
    canForward(const DynInstr *load) const
    {
        for (const auto &e : entries_) {
            if (e->seq >= load->seq)
                break;
            if (e->op == OpClass::Store && e->issued && overlaps(*e, *load))
                return true;
        }
        return false;
    }

    /**
     * Position of the oldest store not yet known to have issued: every
     * entry before it is a non-store or an issued store (invariant
     * checker). At most size().
     */
    std::size_t cursor() const { return cursor_; }

    /** Iterate oldest to youngest (invariant checker, diagnostics). */
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

    /** Empty the ring, capacity retained (SmtCore::clearInFlight). */
    void
    reset()
    {
        entries_.reset();
        cursor_ = 0;
    }

  private:
    static bool
    overlaps(const DynInstr &a, const DynInstr &b)
    {
        Addr a_end = a.memAddr + a.memSize;
        Addr b_end = b.memAddr + b.memSize;
        return a.memAddr < b_end && b.memAddr < a_end;
    }

    std::uint32_t capacity_;
    /** Ring sized to capacity up front: no allocation after construction. */
    RingBuffer<DynInstr *> entries_;
    /** See cursor(); advanced by loadMayIssue. */
    std::size_t cursor_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_CORE_LSQ_HH
