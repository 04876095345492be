/**
 * @file
 * Shared physical register file pool (integer + floating point).
 *
 * The pool is the contended resource that produces the paper's Section 4.2
 * observations: with more contexts, fewer registers are available per
 * thread for renaming (limiting ROB utilization), and a register's
 * residency splits into
 *
 *   [allocate, writeback)  un-ACE: no valid data yet; a strike is
 *                          overwritten at writeback
 *   [writeback, last read] ACE: the value will be consumed
 *   (last read, release]   un-ACE: dead tail
 *
 * with the whole value interval un-ACE when the producing instruction is
 * dynamically dead. Release happens when the next writer of the same
 * architectural register commits, which is exactly when deadness resolves.
 */

#ifndef SMTAVF_CORE_REGFILE_HH
#define SMTAVF_CORE_REGFILE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "avf/ledger.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "ckpt/serializer.hh"

namespace smtavf
{

/** The shared physical register pool. */
class PhysRegFile
{
  public:
    /**
     * @param num_int         integer physical registers
     * @param num_fp          floating-point physical registers
     * @param ledger          AVF interval destination
     * @param alloc_unace     model the allocate-to-writeback window as
     *                        un-ACE (true; setting false is the DESIGN.md
     *                        "register allocation window" ablation, which
     *                        counts allocated-but-unwritten bits ACE)
     * @param dead_aware      end a value's ACE window at its last
     *                        committed read (knowing the tail is dead
     *                        requires the deferred dead-code analysis);
     *                        false = conservative: committed values are
     *                        ACE until overwritten (the "no dead-code
     *                        analysis" ablation)
     */
    PhysRegFile(std::uint32_t num_int, std::uint32_t num_fp,
                AvfLedger &ledger, bool alloc_unace = true,
                bool dead_aware = true);

    /** Allocate a register; invalidReg when the pool is exhausted. */
    RegIndex alloc(bool fp, ThreadId tid, Cycle now);

    /** Value written at writeback: becomes ready for consumers. */
    void markWritten(RegIndex phys, Cycle now);

    /** True once the value has been written (wakeup test). */
    bool isReady(RegIndex phys) const { return readyByPhys()[phys]; }

    /**
     * The dense ready table, indexed by physical register: 1 once the
     * value is written, 0 before, and 1 at index invalidReg (-1), so a
     * missing operand never waits. The issue stage's wakeup pass reads
     * only this array and the IQ's keys, never an instruction record.
     */
    const std::uint8_t *readyByPhys() const { return ready_.data() + 1; }

    /** A committed consumer read the value (read time = its issue). */
    void noteRead(RegIndex phys, Cycle read_cycle);

    /**
     * Release at the next writer's commit; emits the classified residency
     * intervals. @p producer_dead marks the whole value window un-ACE.
     */
    void release(RegIndex phys, Cycle now, bool producer_dead);

    /** Release on squash: the whole residency is un-ACE. */
    void releaseSquashed(RegIndex phys, Cycle now);

    /** Close intervals of still-allocated registers at end of run. */
    void finalizeAll(Cycle now);

    std::uint32_t freeInt() const { return freeInt_; }
    std::uint32_t freeFp() const { return freeFp_; }
    std::uint32_t numInt() const { return numInt_; }
    std::uint32_t numFp() const { return numFp_; }
    std::uint64_t totalBits() const;

    // ---- state exposure for the invariant checker ----------------------

    /** True while @p phys is out of the free pool. */
    bool isAllocated(RegIndex phys) const
    {
        return regs_.at(phys).allocated;
    }

    /**
     * Registers currently allocated by @p tid (PRAT's occupancy probe,
     * policy/prat.hh). O(1): a counter maintained at alloc/release, not a
     * scan — fetchOrder asks once per thread per cycle.
     */
    std::uint32_t
    allocatedBy(ThreadId tid) const
    {
        return allocatedBy_[tid];
    }

    /** The free list of one bank (int or fp), in pop order. */
    const AVec<RegIndex> &
    freeList(bool fp) const
    {
        return fp ? freeFpList_ : freeIntList_;
    }

    /**
     * Worker-reuse hook: exact post-construction state — all registers
     * free, both free lists re-seeded in constructor pop order (low
     * indices pop first). Allocation-free (capacity is retained).
     */
    void reset();

    /**
     * Fault injection for the invariant-checker tests ONLY: overwrite one
     * free-list slot with an arbitrary register index, modelling the kind
     * of bookkeeping corruption (double-free / leaked register) the
     * conservation invariant exists to catch. Never call outside tests.
     */
    void
    debugCorruptFreeList(bool fp, std::size_t slot, RegIndex value)
    {
        (fp ? freeFpList_ : freeIntList_).at(slot) = value;
    }

    /**
     * Checkpoint hook: every register's residency state plus both free
     * lists in pop order (allocation order is architecturally visible
     * through which physical indices later instructions receive).
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        // The wire format of a vector of (allocated, written, tid,
        // allocCycle, wbCycle, lastRead) records; `written` lives in
        // the ready table, so the records are walked by hand.
        std::uint64_t n = regs_.size();
        ar(n);
        if constexpr (Ar::loading) {
            if (n != regs_.size())
                throw CheckpointError("checkpoint register count mismatch");
        }
        for (std::size_t i = 0; i < regs_.size(); ++i) {
            Reg &r = regs_[i];
            bool written = ready_[i + 1];
            ar(r.allocated);
            ar(written);
            ar(r.tid);
            ar(r.allocCycle);
            ar(r.wbCycle);
            ar(r.lastRead);
            if constexpr (Ar::loading)
                ready_[i + 1] = written;
        }
        ar(freeIntList_);
        ar(freeFpList_);
        ar(freeInt_);
        ar(freeFp_);
        if constexpr (Ar::loading) {
            // Derived, not wire state: each Reg carries tid + allocated,
            // so the per-thread tallies recompute exactly.
            allocatedBy_.fill(0);
            for (const auto &r : regs_)
                if (r.allocated)
                    ++allocatedBy_[r.tid];
        }
    }

  private:
    /** A register's residency; whether it is written is in ready_. */
    struct Reg
    {
        bool allocated = false;
        ThreadId tid = 0;
        Cycle allocCycle = 0;
        Cycle wbCycle = 0;
        Cycle lastRead = 0;
    };

    /** Return @p phys to its bank's free list (release, squash). */
    void freeReg(RegIndex phys);

    void emitIntervals(RegIndex phys, Cycle now, bool producer_dead,
                       bool squashed);

    /** Empty ready table: nothing written, index invalidReg ready. */
    void clearReady();

    std::uint32_t numInt_;
    std::uint32_t numFp_;
    std::uint32_t freeInt_;
    std::uint32_t freeFp_;
    AVec<Reg> regs_;
    /** Index phys + 1; see readyByPhys(). */
    AVec<std::uint8_t> ready_;
    AVec<RegIndex> freeIntList_;
    AVec<RegIndex> freeFpList_;
    std::array<std::uint32_t, maxContexts> allocatedBy_{};
    AvfLedger &ledger_;
    bool allocUnace_;
    bool deadAware_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_REGFILE_HH
