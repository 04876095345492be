/**
 * @file
 * InstrSlots: the core's fixed storage for in-flight instructions.
 *
 * A core holds at most contexts x (fetchQueueSize + robSize)
 * instructions: fetch needs room in the thread's fetch queue, dispatch
 * needs room in its ROB, and an instruction leaves both the cycle it
 * commits or squashes. One array of that many records, carved from the
 * Simulator's construction arena, so holds a whole run. Handles are
 * plain pointers into it (the array never moves; copying one touches no
 * reference count), and free slots form a LIFO list threaded through
 * DynInstr::completionNext.
 */

#ifndef SMTAVF_CORE_INSTR_SLOTS_HH
#define SMTAVF_CORE_INSTR_SLOTS_HH

#include <cstdint>
#include <new>

#include "base/arena.hh"
#include "base/logging.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Fixed-capacity free-listed array of DynInstr records. */
class InstrSlots
{
  public:
    explicit InstrSlots(std::size_t capacity) : slots_(capacity) { reset(); }

    // The free list points into slots_: a copy would alias the original.
    InstrSlots(const InstrSlots &) = delete;
    InstrSlots &operator=(const InstrSlots &) = delete;

    /**
     * A free slot holding a fresh instruction built from the stream
     * record @p proto; panics past capacity.
     */
    DynInstr *
    acquire(const StreamInstr &proto)
    {
        return ::new (take()) DynInstr(proto);
    }

    /** A free slot holding a copy of @p proto (a wrong-path filler). */
    DynInstr *
    acquire(const DynInstr &proto)
    {
        return ::new (take()) DynInstr(proto);
    }

    /** Give back the slot of a committed, squashed or dropped fetch. */
    void
    release(DynInstr *in)
    {
        in->completionNext = free_;
        free_ = in;
        --live_;
    }

    /** Free every slot (construction, restore, end of run). */
    void
    reset()
    {
        free_ = nullptr;
        for (std::size_t i = slots_.size(); i-- > 0;) {
            slots_[i].completionNext = free_;
            free_ = &slots_[i];
        }
        live_ = 0;
    }

    // ---- state exposure for the invariant checker (slots.ownership) ----
    std::size_t capacity() const { return slots_.size(); }
    std::size_t live() const { return live_; }
    const DynInstr *freeHead() const { return free_; }

    /** Slot index of @p in, or capacity() when it is not a slot. */
    std::size_t
    indexOf(const DynInstr *in) const
    {
        auto off = reinterpret_cast<std::uintptr_t>(in) -
                   reinterpret_cast<std::uintptr_t>(slots_.data());
        if (off % sizeof(DynInstr) || off / sizeof(DynInstr) >= capacity())
            return capacity();
        return off / sizeof(DynInstr);
    }

  private:
    /** Pop the free list's head; its record is overwritten whole. */
    DynInstr *
    take()
    {
        DynInstr *in = free_;
        if (!in)
            SMTAVF_PANIC("more than ", slots_.size(),
                         " instructions in flight (slot bound violated)");
        free_ = in->completionNext;
        ++live_;
        return in;
    }

    AVec<DynInstr> slots_;
    DynInstr *free_ = nullptr;
    std::size_t live_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_CORE_INSTR_SLOTS_HH
