/**
 * @file
 * The synthetic RISC ISA: operation classes, register-name helpers and the
 * dynamic instruction record (DynInstr) that flows through the pipeline.
 *
 * The workload generator emits DynInstr records with genuine register
 * dataflow, memory addresses and branch outcomes; the core model adds
 * renaming, timing and AVF bookkeeping in place.
 */

#ifndef SMTAVF_ISA_INSTR_HH
#define SMTAVF_ISA_INSTR_HH

#include <cstdint>

#include "avf/structures.hh"
#include "base/small_vec.hh"
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

/** True for operations executed on floating-point units. */
bool isFloat(OpClass op);

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
 * One closed residency interval of this instruction's bits in a hardware
 * structure, awaiting final ACE/un-ACE classification (deferred until the
 * producing instruction's dynamic deadness is known).
 */
struct PendingInterval
{
    HwStruct structure;
    std::uint32_t bitCount;
    Cycle start;
    Cycle end;
};

/**
 * A dynamic instruction. Plain aggregate by design: it is the working
 * record of the whole pipeline and every stage annotates it in place.
 */
struct DynInstr
{
    // --- identity -------------------------------------------------------
    ThreadId tid = invalidThread;
    /** Per-thread fetch order; monotonic across wrong-path fetches too. */
    SeqNum seq = 0;
    /** Global dispatch order (age for issue selection across threads). */
    SeqNum globalSeq = 0;
    /** Index in the correct-path stream; meaningless when wrongPath. */
    std::uint64_t streamIdx = 0;
    Addr pc = 0;
    OpClass op = OpClass::Nop;

    // --- architectural operands -----------------------------------------
    RegIndex destReg = invalidReg;
    RegIndex srcReg1 = invalidReg;
    RegIndex srcReg2 = invalidReg;

    // --- memory behaviour -------------------------------------------------
    Addr memAddr = 0;
    std::uint8_t memSize = 0;

    // --- control behaviour ------------------------------------------------
    bool branchTaken = false;     ///< actual outcome
    Addr branchTarget = 0;        ///< actual target
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
     * Residency intervals awaiting dead-code resolution. An instruction
     * accrues at most five intervals (IQ and FU at issue; ROB, LSQ tag and
     * LSQ data at commit or squash), so the inline capacity of six keeps
     * the list inside the record and off the heap.
     */
    SmallVec<PendingInterval, 6> pending;

    /**
     * Intrusive link owned by the core: the next instruction scheduled to
     * finish in the same cycle while this one waits on the completion
     * wheel, the next free slot while this slot is free
     * (core/instr_slots.hh), null otherwise.
     */
    DynInstr *completionNext = nullptr;

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

    /** True if this instruction never contributes ACE bits. */
    bool
    neverAce() const
    {
        return wrongPath || squashed || op == OpClass::Nop;
    }
};

} // namespace smtavf

#endif // SMTAVF_ISA_INSTR_HH
