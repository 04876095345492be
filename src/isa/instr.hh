/**
 * @file
 * The synthetic RISC ISA: operation classes, register-name helpers, the
 * stream record (StreamInstr) the workload generator emits and the
 * dynamic instruction record (DynInstr) that flows through the pipeline.
 *
 * The workload generator emits StreamInstr records with genuine register
 * dataflow, memory addresses and branch outcomes; the core builds a
 * DynInstr from each and adds renaming and timing in place.
 */

#ifndef SMTAVF_ISA_INSTR_HH
#define SMTAVF_ISA_INSTR_HH

#include <cstdint>

#include "base/types.hh"

namespace smtavf
{

/** Operation classes of the synthetic ISA. */
enum class OpClass : std::uint8_t
{
    Nop,
    IntAlu,
    IntMult,
    IntDiv,
    FpAlu,
    FpMult,
    FpDiv,
    Load,
    Store,
    BranchCond,
    BranchUncond,
    Call,
    Return,
    NumOpClasses
};

/** Number of operation classes. */
constexpr std::size_t numOpClasses =
    static_cast<std::size_t>(OpClass::NumOpClasses);

/** Human-readable mnemonic for an operation class. */
const char *opClassName(OpClass op);

/** True for conditional and unconditional control transfers. */
bool isControl(OpClass op);

/** True for loads and stores. */
bool isMemRef(OpClass op);

/**
 * Architectural register namespace: indices [0, 32) are the integer file,
 * [32, 64) the floating-point file. Register 0 of each file is a
 * hardwired zero/constant register (writes to it are discarded, making it
 * a natural sink for dead results).
 */
constexpr RegIndex numArchIntRegs = 32;
constexpr RegIndex numArchFpRegs = 32;
constexpr RegIndex numArchRegs = numArchIntRegs + numArchFpRegs;

/** True if the architectural index names a floating-point register. */
inline bool
isFpReg(RegIndex arch_reg)
{
    return arch_reg >= numArchIntRegs;
}

/** True if the architectural index is a hardwired zero register. */
inline bool
isZeroReg(RegIndex arch_reg)
{
    return arch_reg == 0 || arch_reg == numArchIntRegs;
}

/**
 * The part of an instruction the workload generator decides: identity,
 * operands, memory access and branch outcome. The generator buffers
 * these records, exactly the fields a checkpoint carries for a buffered
 * instruction (StreamGenerator::serializeTemplate), and the core builds
 * each in-flight DynInstr from one (InstrSlots::acquire).
 */
struct StreamInstr
{
    /** Index in the correct-path stream; meaningless when wrongPath. */
    std::uint64_t streamIdx = 0;
    Addr pc = 0;
    Addr memAddr = 0;
    Addr branchTarget = 0;        ///< actual target
    RegIndex destReg = invalidReg;
    RegIndex srcReg1 = invalidReg;
    RegIndex srcReg2 = invalidReg;
    ThreadId tid = invalidThread;
    OpClass op = OpClass::Nop;
    std::uint8_t memSize = 0;
    bool branchTaken = false;     ///< actual outcome

    /** True for instructions that write a non-zero architectural register. */
    bool
    writesReg() const
    {
        return destReg != invalidReg && !isZeroReg(destReg);
    }

    /** True if this is a conditional or unconditional control transfer. */
    bool isBranch() const { return isControl(op); }

    /** True if this is a load or store. */
    bool isMem() const { return isMemRef(op); }
};

static_assert(sizeof(StreamInstr) <= 56,
              "the generator buffers one StreamInstr per uncommitted "
              "stream instruction");

/**
 * A dynamic instruction in flight: the generator's StreamInstr plus the
 * state every pipeline stage annotates in place. Where its bits sat in
 * each structure is not kept here; the core derives it from the cycles
 * below when the instruction commits, squashes or outlives the run
 * (residencyAt(), core/smt_core.hh).
 */
struct DynInstr : StreamInstr
{
    DynInstr() = default;

    /**
     * A fresh instruction carrying @p s, every pipeline field at its
     * default. Implicit, so a stream record converts where a DynInstr
     * is wanted.
     */
    DynInstr(const StreamInstr &s) : StreamInstr(s) {}

    // --- identity -------------------------------------------------------
    /** Per-thread fetch order; monotonic across wrong-path fetches too. */
    SeqNum seq = 0;
    /** Global dispatch order (age for issue selection across threads). */
    SeqNum globalSeq = 0;

    // --- control behaviour ------------------------------------------------
    bool predTaken = false;       ///< predictor's direction guess
    bool mispredicted = false;    ///< set at fetch when prediction != actual
    std::uint32_t predHistory = 0; ///< gshare history the guess was made under
    std::uint32_t rasTop = 0;      ///< RAS checkpoint for squash recovery
    std::uint32_t rasDepth = 0;    ///< RAS checkpoint for squash recovery

    // --- classification flags ---------------------------------------------
    bool wrongPath = false;       ///< fetched past a mispredicted branch
    bool squashed = false;        ///< removed before commit

    // --- rename state -------------------------------------------------------
    RegIndex destPhys = invalidReg;
    RegIndex oldDestPhys = invalidReg;
    RegIndex srcPhys1 = invalidReg;
    RegIndex srcPhys2 = invalidReg;

    // --- pipeline state -----------------------------------------------------
    bool inIq = false;
    bool issued = false;
    bool completed = false;
    Cycle dispatchCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = 0; ///< set when issue schedules the completion

    /** DL1 outcome of this memory access (set at execute). */
    bool dl1Miss = false;
    /** L2 outcome of this memory access (set at execute). */
    bool l2Miss = false;
    /**
     * PDG's fetch-time miss prediction while it still counts against the
     * thread; issue, completion or a squash clears it, exactly once.
     */
    bool predictedMiss = false;

    /**
     * Intrusive link owned by the core: the next instruction scheduled to
     * finish in the same cycle while this one waits on the completion
     * wheel, the next free slot while this slot is free
     * (core/instr_slots.hh), null otherwise.
     */
    DynInstr *completionNext = nullptr;

    /** True if this instruction never contributes ACE bits. */
    bool
    neverAce() const
    {
        return wrongPath || squashed || op == OpClass::Nop;
    }
};

static_assert(sizeof(DynInstr) <= 160,
              "a core holds contexts x (fetchQueueSize + robSize) DynInstr "
              "slots");

} // namespace smtavf

#endif // SMTAVF_ISA_INSTR_HH
