/**
 * @file
 * The AVF ledger: central accumulator of ACE / un-ACE bit-residency.
 *
 * Following Mukherjee et al. (MICRO-36), a structure's AVF is the average
 * fraction of its bits that hold ACE state:
 *
 *   AVF(s) = sum over intervals of (ACE bits x residency cycles)
 *            -------------------------------------------------------
 *                      bits(s) x total execution cycles
 *
 * Components report *closed* intervals with a final classification; the
 * deferred pieces (dynamic deadness) are resolved by DeadCodeAnalyzer
 * before reaching the ledger. Every interval carries the contributing
 * thread so per-thread AVF (the paper's Figures 3-4) falls out directly.
 */

#ifndef SMTAVF_AVF_LEDGER_HH
#define SMTAVF_AVF_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "avf/structures.hh"
#include "base/types.hh"
#include "ckpt/serializer.hh"
#include "protect/scheme.hh"

namespace smtavf
{

/** Accumulates classified bit-residency per structure and thread. */
class AvfLedger
{
  public:
    explicit AvfLedger(unsigned num_threads);

    /**
     * Declare the total bit capacity of a structure. For per-thread
     * private structures (ROB, LSQ), @p per_thread_bits is the capacity of
     * one thread's instance — the denominator of that thread's AVF
     * contribution (Figure 3). Zero (default) means the structure is
     * shared and per-thread AVF uses the full capacity.
     */
    void setStructureBits(HwStruct s, std::uint64_t total_bits,
                          std::uint64_t per_thread_bits = 0);

    /**
     * Attach the protection assignment (protect/scheme.hh). Every ACE
     * interval recorded afterwards is split into covered vs. residual
     * bit-cycles per the per-structure scheme; the two tallies are
     * accumulated independently so the conservation identity
     * covered + residual == total ACE is a checkable invariant, not a
     * definition. Must be called before any interval lands (fatal
     * otherwise) — protection is a property of the whole run.
     */
    void setProtection(const ProtectionConfig &protection);

    const ProtectionConfig &protection() const { return protection_; }

    /**
     * Record a closed residency interval [start, end) of @p bits bits
     * belonging to thread @p tid in structure @p s, already classified.
     */
    void
    addInterval(HwStruct s, ThreadId tid, std::uint32_t bits, Cycle start,
                Cycle end, bool ace)
    {
        if (end < start)
            backwardsInterval(s, start, end);
        if (tid >= numThreads_)
            unknownThread(tid);
        const std::size_t i = at(s, tid);
        const std::uint64_t bit_cycles =
            static_cast<std::uint64_t>(bits) * (end - start);
        if (!ace) {
            unAce_[i] += bit_cycles;
            return;
        }
        ace_[i] += bit_cycles;
        std::uint64_t covered = 0;
        if (scheme_[idx(s)] != ProtScheme::None) {
            covered = smtavf::coveredAceBitCycles(scheme_[idx(s)],
                                                  scrub_[idx(s)], bits,
                                                  start, end);
            if (covered > bit_cycles)
                overCovered(s, covered, bit_cycles);
        }
        aceCovered_[i] += covered;
        aceResidual_[i] += bit_cycles - covered;
    }

    /** Bit 63 of an addIntervals() entry: the interval is ACE. */
    static constexpr std::uint64_t kAceFlag = std::uint64_t{1} << 63;
    /** Bits 0-62 of an addIntervals() entry: the interval's start. */
    static constexpr std::uint64_t kStartMask = kAceFlag - 1;

    /**
     * Record @p n closed intervals of @p bits bits each, all of thread
     * @p tid in structure @p s and all ending at @p end. Entry k packs
     * interval k's start cycle (bits 0-62) with its ACE flag (kAceFlag);
     * @p end, like every start, lies below 2^63.
     * The tallies come out exactly as from n addInterval() calls, with
     * the same checks on every interval. Tallies are u64 sums, so an
     * unprotected structure may sum the lengths first; coverage is
     * floored per interval, which is not linear in the length, so a
     * protected structure still prices each interval on its own.
     */
    void
    addIntervals(HwStruct s, ThreadId tid, std::uint32_t bits,
                 const std::uint64_t *entries, std::size_t n, Cycle end)
    {
        if (tid >= numThreads_)
            unknownThread(tid);
        const std::size_t i = at(s, tid);
        const std::uint64_t b = bits;
        if (scheme_[idx(s)] == ProtScheme::None) {
            std::uint64_t ace_len = 0;
            std::uint64_t all_len = 0;
            // Starts and end lie below 2^63, so a length wraps past 2^63
            // exactly when its start is after end: one OR checks them all.
            std::uint64_t wrapped = end;
            for (std::size_t k = 0; k < n; ++k) {
                const std::uint64_t len = end - (entries[k] & kStartMask);
                all_len += len;
                ace_len += len & (0 - (entries[k] >> 63));
                wrapped |= len;
            }
            if (wrapped & kAceFlag)
                backwardsIntervals(s, entries, n, end);
            ace_[i] += b * ace_len;
            aceResidual_[i] += b * ace_len;
            unAce_[i] += b * (all_len - ace_len);
            return;
        }
        std::uint64_t ace = 0;
        std::uint64_t un_ace = 0;
        std::uint64_t covered = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const Cycle start = entries[k] & kStartMask;
            if (end < start)
                backwardsInterval(s, start, end);
            const std::uint64_t bit_cycles = b * (end - start);
            if (!(entries[k] & kAceFlag)) {
                un_ace += bit_cycles;
                continue;
            }
            const std::uint64_t c = smtavf::coveredAceBitCycles(
                scheme_[idx(s)], scrub_[idx(s)], bits, start, end);
            if (c > bit_cycles)
                overCovered(s, c, bit_cycles);
            ace += bit_cycles;
            covered += c;
        }
        ace_[i] += ace;
        unAce_[i] += un_ace;
        aceCovered_[i] += covered;
        aceResidual_[i] += ace - covered;
    }

    /** Fix the run length; AVFs are undefined before this is called. */
    void finalize(Cycle total_cycles);

    /**
     * Discard everything accumulated so far and start the measured window
     * at @p boundary — the warm-up boundary (Simulator `--warmup`). All
     * four tallies zero; finalize() later divides by end - boundary, so
     * AVFs cover exactly the post-warmup window. Callable any number of
     * times before finalize().
     */
    void resetTallies(Cycle boundary);

    /**
     * Worker-reuse hook: back to the exact post-construction state —
     * tallies zeroed, window base and protection cleared, un-finalized.
     * Structure geometry persists (the reusing core re-declares the same
     * bits). setProtection() becomes legal again. Allocation-free.
     */
    void reset();

    /** Start cycle of the measured window (0 unless resetTallies ran). */
    Cycle baseCycle() const { return baseCycle_; }

    /** Aggregate AVF of a structure over the whole run. */
    double avf(HwStruct s) const;

    /**
     * Residual AVF: the fraction of bits still vulnerable once the
     * structure's protection scheme is accounted for. Equals avf()
     * bit-exactly for unprotected structures.
     */
    double residualAvf(HwStruct s) const;

    /** The AVF contribution of one thread to a structure. */
    double threadAvf(HwStruct s, ThreadId tid) const;

    /** Fraction of bit-cycles occupied at all (ACE + un-ACE). */
    double occupancy(HwStruct s) const;

    /** Fraction of occupied bit-cycles that are ACE. */
    double aceShare(HwStruct s) const;

    std::uint64_t structureBits(HwStruct s) const;
    Cycle totalCycles() const { return totalCycles_; }
    unsigned numThreads() const { return numThreads_; }
    bool finalized() const { return finalized_; }

    /** Raw ACE bit-cycles (for tests and MITF computations). */
    std::uint64_t aceBitCycles(HwStruct s) const;
    std::uint64_t aceBitCycles(HwStruct s, ThreadId tid) const;
    std::uint64_t unAceBitCycles(HwStruct s) const;

    /** ACE bit-cycles covered by the structure's protection scheme. */
    std::uint64_t coveredAceBitCycles(HwStruct s) const;
    std::uint64_t coveredAceBitCycles(HwStruct s, ThreadId tid) const;

    /** ACE bit-cycles left vulnerable after protection. */
    std::uint64_t residualAceBitCycles(HwStruct s) const;
    std::uint64_t residualAceBitCycles(HwStruct s, ThreadId tid) const;

    /**
     * Checkpoint hook: the accumulated tallies and the window base.
     * Geometry (structBits_/perThreadBits_) and the protection split are
     * reconstructed by the restoring Simulator's constructor from its own
     * config — which the checkpoint fingerprint guarantees compatible.
     * Each tally travels per structure as a u64 count (numThreads())
     * followed by one u64 per thread; loading rejects any other count.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        serializeTally(ar, ace_);
        serializeTally(ar, unAce_);
        serializeTally(ar, aceCovered_);
        serializeTally(ar, aceResidual_);
        ar(baseCycle_);
    }

  private:
    /** One u64 per (structure, thread), indexed by at(). */
    using Tally = std::array<std::uint64_t, numHwStructs * maxContexts>;

    static std::size_t
    idx(HwStruct s)
    {
        return static_cast<std::size_t>(s);
    }

    static std::size_t
    at(HwStruct s, ThreadId tid)
    {
        return idx(s) * maxContexts + tid;
    }

    template <class Ar>
    void
    serializeTally(Ar &ar, Tally &tally)
    {
        for (std::size_t s = 0; s < numHwStructs; ++s) {
            std::uint64_t count = numThreads_;
            ar(count);
            if (count != numThreads_)
                throw CheckpointError("ledger tally for " +
                                      std::to_string(count) +
                                      " threads in a " +
                                      std::to_string(numThreads_) +
                                      "-thread checkpoint");
            for (unsigned t = 0; t < numThreads_; ++t)
                ar(tally[s * maxContexts + t]);
        }
    }

    /** Install @p protection and cache its per-structure parameters. */
    void applyProtection(const ProtectionConfig &protection);

    /** Per-thread accessor guard: rejects a thread id >= numThreads(). */
    void checkThread(ThreadId tid) const;

    [[noreturn]] static void backwardsInterval(HwStruct s, Cycle start,
                                               Cycle end);
    [[noreturn]] static void backwardsIntervals(HwStruct s,
                                                const std::uint64_t *entries,
                                                std::size_t n, Cycle end);
    [[noreturn]] static void unknownThread(ThreadId tid);
    [[noreturn]] static void overCovered(HwStruct s, std::uint64_t covered,
                                         std::uint64_t bit_cycles);

    unsigned numThreads_;
    std::array<std::uint64_t, numHwStructs> structBits_{};
    std::array<std::uint64_t, numHwStructs> perThreadBits_{};
    Tally ace_{};
    Tally unAce_{};
    // ACE split by protection; aceCovered_ + aceResidual_ must equal ace_
    // (sim/invariants.cc proves the conservation every check period).
    Tally aceCovered_{};
    Tally aceResidual_{};
    ProtectionConfig protection_{};
    // protection_'s scheme and effective scrub period per structure,
    // read by every interval.
    std::array<ProtScheme, numHwStructs> scheme_{};
    std::array<Cycle, numHwStructs> scrub_{};
    Cycle totalCycles_ = 0;
    Cycle baseCycle_ = 0;
    bool finalized_ = false;
};

} // namespace smtavf

#endif // SMTAVF_AVF_LEDGER_HH
