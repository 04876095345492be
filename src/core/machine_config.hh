/**
 * @file
 * Full machine configuration. Defaults reproduce the paper's Table 1:
 * 8-wide fetch/issue/commit, 7-stage pipeline, 96-entry shared IQ,
 * 96-entry per-thread ROB, 48-entry per-thread LSQ, the Table-1 cache/TLB
 * hierarchy, per-thread gshare/BTB/RAS, and the ICOUNT baseline fetch
 * policy. The physical register pool (not listed in Table 1) is sized at
 * 448+448 so that a lone thread renames freely while 4-8 contexts contend
 * for it — the contention the paper's Section 4.1/4.2 analyses.
 */

#ifndef SMTAVF_CORE_MACHINE_CONFIG_HH
#define SMTAVF_CORE_MACHINE_CONFIG_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "branch/predictor.hh"
#include "core/fu_pool.hh"
#include "mem/hierarchy.hh"
#include "policy/fetch_policy.hh"
#include "protect/scheme.hh"

namespace smtavf
{

/** AVF-model switches (the DESIGN.md ablations). */
struct AvfOptions
{
    /** Classify first-level dynamically dead results un-ACE. */
    bool deadCodeAnalysis = true;
    /** Fetch and execute wrong-path instructions past mispredicts. */
    bool wrongPathModel = true;
    /** Track DL1 data liveness per byte (false: per line). */
    bool perByteCacheAvf = true;
    /** Registers are un-ACE from allocation to writeback. */
    bool regAllocWindowUnace = true;
    /**
     * Also track the unified L2's AVF (extension; the paper stops at the
     * DL1). Tracked at line granularity — per-byte state for a 2MB cache
     * (one packed 8-byte word per byte) would cost ~16MB per simulator
     * and add little: L2 "reads" are whole-line refills anyway. Lines
     * still resident when the run ends close there.
     */
    bool trackL2Avf = false;
};

/** Everything needed to build a Simulator. */
struct MachineConfig
{
    unsigned contexts = 4;

    // widths (Table 1: 8-wide fetch/issue/commit)
    std::uint32_t fetchWidth = 8;
    std::uint32_t decodeWidth = 8;
    std::uint32_t issueWidth = 8;
    std::uint32_t commitWidth = 8;
    std::uint32_t fetchThreadsPerCycle = 2; ///< ICOUNT.2.8-style front end

    /** Fetch-to-dispatch stages (7-stage pipe: F D R DI IS EX WB). */
    std::uint32_t frontLatency = 3;
    std::uint32_t fetchQueueSize = 16; ///< per-thread fetch/decode buffer

    std::uint32_t iqSize = 96;   ///< shared
    std::uint32_t robSize = 96;  ///< per thread
    std::uint32_t lsqSize = 48;  ///< per thread

    /**
     * Reliability-aware static IQ partitioning (the paper's Section-5
     * proposal): when true, no thread may occupy more than
     * iqSize / contexts issue-queue entries, preventing one clogged
     * dependence chain from filling the shared queue with ACE bits.
     */
    bool iqPartitioned = false;

    std::uint32_t intPhysRegs = 448; ///< shared pool
    std::uint32_t fpPhysRegs = 448;  ///< shared pool

    FuConfig fu{};
    BranchConfig branch{};
    MemConfig mem{};

    FetchPolicyKind fetchPolicy = FetchPolicyKind::Icount;

    /**
     * PRAT tuning (policy/prat.hh): cycles between ledger-measured
     * residual refreshes, and the throttle cap in correct-path
     * instructions (0 = derive the RAT default, 2x a fair IQ share).
     * Read only when fetchPolicy == PRat; ignored — and excluded from
     * validation and the experiment fingerprint — otherwise, so retuning
     * an unused knob never invalidates or re-runs other policies.
     */
    Cycle pratEpoch = 4096;
    std::uint32_t pratCap = 0;

    /**
     * Pre-install each thread's code/hot/warm footprints into IL1/DL1/L2
     * and the TLBs before cycle 0. The paper's SimPoint regions are
     * effectively warmed by 100M+ instructions; short simulations need
     * this to avoid a compulsory-miss regime the paper never measured.
     */
    bool prewarmCaches = true;

    AvfOptions avf{};

    /**
     * Per-structure protection assignment (protect/scheme.hh). An
     * analytical overlay: it splits each ACE bit-cycle into covered vs.
     * residual without perturbing timing, so raw AVF and IPC are
     * bit-identical to the unprotected run. Default: nothing protected.
     */
    ProtectionConfig protection{};

    /**
     * Sample the per-structure AVF every this many cycles of the measured
     * window into SimResult::timeline (vulnerability phase behaviour).
     * 0 disables sampling.
     */
    Cycle avfSampleCycles = 0;

    /**
     * Record the architectural commit trace so fault-injection campaigns
     * (avf/injection.hh) can cross-validate the ACE classification.
     */
    bool recordCommitTrace = false;

    std::uint64_t seed = 1;

    /**
     * Livelock watchdog: if no context commits an instruction for this
     * many consecutive cycles, Simulator::run() raises LivelockError
     * (sim/errors.hh) instead of spinning forever. A correct model always
     * commits within a few memory round trips, so the default is far above
     * any legitimate stall. 0 disables the watchdog.
     */
    Cycle livelockCycles = 100000;

    /**
     * Run the end-of-cycle invariant checker (sim/invariants.hh) every
     * this many cycles; a violation raises InvariantError so corrupted
     * runs fail fast instead of skewing AVF numbers. 0 (the production
     * default) disables checking. The default is taken from the
     * SMTAVF_INVARIANTS environment variable, which the test suite sets so
     * every simulation in it is checked (tests/CMakeLists.txt).
     */
    Cycle invariantCheckCycles = envInvariantCycles();

    /**
     * Cooperative cancellation: when @ref cancel is non-null and
     * cancelCheckCycles > 0, Simulator::run() polls the flag every
     * cancelCheckCycles cycles and raises CancelledError (sim/errors.hh)
     * the moment it is set — so a soft-timed-out or Ctrl-C'd campaign
     * interrupts runaway in-flight runs instead of waiting for them to
     * finish their whole budget. 0 (the default) disables the poll; like
     * the watchdog knobs, neither field affects what a run computes, so
     * both are excluded from the experiment fingerprint. The pointed-to
     * flag must outlive the run (the campaign layer wires its own).
     */
    const std::atomic<bool> *cancel = nullptr;
    Cycle cancelCheckCycles = 0;

    /**
     * First inconsistent parameter as a message, or "" when the
     * configuration is valid. Shared by validate() and the CLI's
     * exit-code-2 path.
     */
    std::string
    validateMsg() const
    {
        using detail::concat;
        if (contexts == 0 || contexts > maxContexts)
            return concat("contexts out of range: ", contexts,
                          " (must be 1..", maxContexts, ")");
        if (fetchWidth == 0 || issueWidth == 0 || commitWidth == 0 ||
            decodeWidth == 0)
            return "pipeline widths must be positive";
        if (fetchWidth > 1024 || issueWidth > 1024 || commitWidth > 1024 ||
            decodeWidth > 1024)
            return concat("absurd pipeline width: fetch ", fetchWidth,
                          " decode ", decodeWidth, " issue ", issueWidth,
                          " commit ", commitWidth, " (limit 1024)");
        if (fetchThreadsPerCycle == 0)
            return "fetchThreadsPerCycle must be positive";
        if (fetchThreadsPerCycle > maxContexts)
            return concat("fetchThreadsPerCycle ", fetchThreadsPerCycle,
                          " exceeds the ", maxContexts, "-context maximum");
        if (frontLatency > 100)
            return concat("absurd front-end latency: ", frontLatency,
                          " stages (limit 100)");
        if (fetchQueueSize == 0)
            return "fetchQueueSize must be positive";
        if (fetchQueueSize > (1u << 16))
            return concat("absurd fetchQueueSize: ", fetchQueueSize);
        if (iqSize == 0 || robSize == 0 || lsqSize == 0)
            return "queue sizes must be positive";
        if (iqSize > (1u << 20) || robSize > (1u << 20) ||
            lsqSize > (1u << 20))
            return concat("absurd queue size: iq ", iqSize, " rob ",
                          robSize, " lsq ", lsqSize, " (limit ", 1u << 20,
                          ")");
        if (intPhysRegs < contexts * 32u || fpPhysRegs < contexts * 32u)
            return concat(
                "register pool too small to hold committed state: ",
                intPhysRegs, "/", fpPhysRegs, " for ", contexts,
                " contexts");
        if (intPhysRegs > (1u << 20) || fpPhysRegs > (1u << 20))
            return concat("absurd register pool: ", intPhysRegs, "/",
                          fpPhysRegs);
        if (mem.memLatency == 0)
            return "memory latency must be positive";
        if (mem.memLatency > (1u << 20))
            return concat("absurd memory latency: ", mem.memLatency);
        if (livelockCycles != 0 && livelockCycles < 16)
            return concat("livelock window too small to clear the ",
                          "pipeline: ", livelockCycles, " (minimum 16)");
        if (fetchPolicy == FetchPolicyKind::PRat) {
            if (pratEpoch == 0)
                return "pratEpoch must be positive (PRAT needs a refresh "
                       "period)";
            if (pratEpoch > (Cycle(1) << 30))
                return concat("absurd pratEpoch: ", pratEpoch, " (limit ",
                              Cycle(1) << 30, ")");
            if (pratCap > (1u << 20))
                return concat("absurd pratCap: ", pratCap, " (limit ",
                              1u << 20, ")");
        }
        if (auto msg = protection.validateMsg(); !msg.empty())
            return msg;
        return "";
    }

    /** Fatal on inconsistent parameters. */
    void
    validate() const
    {
        if (auto msg = validateMsg(); !msg.empty())
            SMTAVF_FATAL(msg);
    }
};

} // namespace smtavf

#endif // SMTAVF_CORE_MACHINE_CONFIG_HH
