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
     * issued (addresses and data known). Inline: probed once per pending
     * load per cycle by the issue stage.
     */
    bool
    loadMayIssue(const DynInstr *load) const
    {
        for (const auto &e : entries_) {
            if (e->seq >= load->seq)
                break;
            if (e->op == OpClass::Store && !e->issued)
                return false;
        }
        return true;
    }

    /**
     * Forwarding test: true when the youngest older store overlapping the
     * load's bytes can supply the data directly (no cache access needed).
     */
    bool
    canForward(const DynInstr *load) const
    {
        bool forward = false;
        for (const auto &e : entries_) {
            if (e->seq >= load->seq)
                break;
            if (e->op == OpClass::Store && e->issued && overlaps(*e, *load))
                forward = true; // youngest older overlapping store wins
        }
        return forward;
    }

    /** Iterate oldest to youngest (invariant checker, diagnostics). */
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

    /** Worker-reuse hook: empty the ring, capacity retained. */
    void reset() { entries_.reset(); }

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
};

} // namespace smtavf

#endif // SMTAVF_CORE_LSQ_HH
