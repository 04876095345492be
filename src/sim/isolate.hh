/**
 * @file
 * Process-level run isolation for fault-tolerant campaigns.
 *
 * runTolerant()'s thread mode contains failures that surface as C++
 * exceptions, but a SIGSEGV, a runaway allocation the OOM killer
 * resolves, or a run that never polls the cancel flag still takes the
 * whole campaign down with it. Process mode closes that gap: runs
 * execute in forked children with their own rlimits (CPU seconds,
 * address space, core dumps off) and a supervisor-enforced *hard*
 * timeout — SIGKILL works on a child that never checks anything. The
 * supervisor reaps every child and classifies its death into a small
 * crash taxonomy (CrashKind) that feeds the RunOutcome retry/quarantine
 * machinery (docs/ROBUSTNESS.md). Both modes classify what a run throws
 * with the same catch ladder, classifyRun().
 *
 * Determinism: a healthy child computes exactly what the same run would
 * compute in-process (same code, same seed-derived RNG streams, no shared
 * mutable state) and ships its SimResult back over a pipe in the journal
 * wire format — hexfloat doubles, CRC-checked — so process-mode campaigns
 * are bit-identical to thread-mode ones. tests/test_isolate.cc proves it
 * differentially for 1- and 4-worker pools.
 */

#ifndef SMTAVF_SIM_ISOLATE_HH
#define SMTAVF_SIM_ISOLATE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "metrics/metrics.hh"

namespace smtavf
{

/** Where a fault-tolerant campaign executes its runs. */
enum class IsolateMode
{
    Thread, ///< in-process worker threads (exceptions contained, crashes not)
    Process ///< forked sandboxed children: rlimits, hard kill, taxonomy
};

/** Parse an isolation mode name (case-insensitive). */
bool parseIsolateMode(const std::string &name, IsolateMode &out);

/**
 * How an isolated child died, when it did not deliver a clean protocol
 * result. The supervisor derives this from the wait status plus its own
 * knowledge of whether *it* sent the SIGKILL.
 */
enum class CrashKind
{
    None,        ///< no crash: the child delivered a protocol payload
    ExitCode,    ///< child exited with a nonzero code (or 0 and no payload)
    Segv,        ///< SIGSEGV
    Abort,       ///< SIGABRT (assert, abort(), unhandled exception path)
    Bus,         ///< SIGBUS
    CpuLimit,    ///< SIGXCPU: burned past RLIMIT_CPU
    Oom,         ///< allocation failure under the memory cap, or an
                 ///< unsolicited SIGKILL (the kernel OOM killer's weapon)
    HardTimeout, ///< supervisor SIGKILL at the hard wall-clock deadline
    Signal       ///< any other fatal signal
};

/** Short lower-case name ("segv", "cpu-limit", "hard-timeout", ...). */
const char *crashKindName(CrashKind k);

/**
 * Classify a waitpid() status. @p supervisor_killed must be true iff the
 * supervisor itself SIGKILLed the child (hard timeout or cancellation) —
 * it is what distinguishes a deliberate kill from the OOM killer's.
 * A normally-exited status (code 0) classifies as ExitCode here; callers
 * only ask after deciding the payload was not a clean result.
 */
CrashKind classifyWaitStatus(int wait_status, bool supervisor_killed);

/** Human-readable one-liner for a classified child death. */
std::string describeChildDeath(int wait_status, bool supervisor_killed);

/** Sandbox knobs applied to each forked child. */
struct ChildLimits
{
    /**
     * Supervisor-enforced wall-clock deadline per child; past it the
     * child is SIGKILLed and the run classified HardTimeout. Unlike the
     * campaign soft timeout this needs no cooperation from the child.
     * 0 = no hard timeout.
     */
    double hardTimeoutSeconds = 0.0;
    /** RLIMIT_CPU in seconds (SIGXCPU past it); 0 = inherit. */
    std::uint64_t cpuSeconds = 0;
    /** RLIMIT_AS in bytes (allocations fail past it); 0 = inherit. */
    std::uint64_t memoryBytes = 0;
    /**
     * When set, the supervisor polls this flag while waiting and
     * SIGKILLs the child the moment it flips — so Ctrl-C interrupts even
     * a wedged child immediately. The death is reported as Cancelled,
     * not HardTimeout.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** Everything one run, in a child or in-process, can come back as. */
struct ChildOutcome
{
    enum class Kind
    {
        Result,    ///< clean SimResult, bit-exact via the wire format
        Livelock,  ///< the run threw LivelockError (deterministic)
        Cancelled, ///< the run unwound on the cancel flag, or the
                   ///< supervisor killed its child on cancellation
        Error,     ///< the run threw; message carries the failure
        Crash      ///< the child died, or the run's allocation failed
                   ///< (Oom); see crash for the taxonomy
    };

    Kind kind = Kind::Crash;
    SimResult result;             ///< valid when kind == Result
    std::string message;          ///< failure text (empty for Result)
    CrashKind crash = CrashKind::None; ///< None unless kind == Crash
};

/**
 * Run @p fn in this process behind the campaign's exception boundary and
 * classify what escapes it: a SimResult is Result; CancelledError is
 * Cancelled; LivelockError is Livelock; std::bad_alloc is a Crash of
 * kind Oom; any other std::exception, a SimError (SMTAVF_FATAL under
 * setLoggingThrows) or an unknown throw is an Error carrying its
 * message. Never throws. Thread-mode campaigns call it directly, and a
 * forked child (runBatchInChild) frames its outcome over the pipe, so
 * both modes classify a failure identically.
 */
ChildOutcome classifyRun(const std::function<SimResult()> &fn);

/**
 * Run @p fn in a forked, sandboxed child and collect the outcome: a
 * one-run runBatchInChild(). A death the child did not report becomes a
 * Crash classified by classifyWaitStatus(), or Cancelled when the
 * supervisor killed it on ChildLimits::cancel. Exceptions never cross
 * the process boundary — every path returns a ChildOutcome.
 *
 * fn runs in the child process: state it mutates is invisible to the
 * parent, and anything it does fatally wrong (segfault, leak past the
 * cap, infinite loop) is contained.
 */
ChildOutcome runInChild(const std::function<SimResult()> &fn,
                        const ChildLimits &limits);

/**
 * Outcome of one batched child execution (runBatchInChild). A batch
 * amortizes the fork cost of process isolation over several runs: the
 * child executes fn(0..n-1) sequentially — each run building its own
 * Simulator — and frames each run's result on the pipe as it completes,
 * so every run finished *before* a crash survives the crash.
 */
struct ChildBatchOutcome
{
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * Per-run outcomes. A run whose frame never arrived (reported[k] is
     * 0) holds the child's death: Cancelled when the supervisor killed
     * the child on cancellation, else a Crash with @ref crash and
     * @ref crashMessage.
     */
    std::vector<ChildOutcome> runs;
    /** reported[k]: run k's frame arrived complete (CRC-checkable). */
    std::vector<char> reported;

    /**
     * The run the child had started but never framed when it died —
     * the one its death is attributed to. npos when the child died
     * between runs (or never started one): the death then belongs to
     * the batch infrastructure, not a particular run.
     */
    std::size_t inFlight = npos;

    /** True when some run never reported (crash, kill, torn pipe). */
    bool childDied = false;
    /** The supervisor killed the child because the cancel flag flipped. */
    bool cancelled = false;
    /** How the child died (valid when childDied && !cancelled). */
    CrashKind crash = CrashKind::None;
    std::string crashMessage;

    bool
    allReported() const
    {
        for (char r : reported)
            if (!r)
                return false;
        return true;
    }
};

/**
 * Run fn(0), ..., fn(n-1) sequentially in ONE forked, sandboxed child.
 *
 * The child disables core dumps, applies the rlimits, arranges to die
 * with its supervisor (PR_SET_PDEATHSIG) and runs each fn(k) through
 * classifyRun(). The wall-clock deadline scales with n — the supervisor
 * cannot see per-run boundaries precisely enough to re-arm a per-run
 * deadline, so the deadline is per batch; the caller scales
 * ChildLimits::cpuSeconds likewise. This is the only child protocol, and
 * it is framed: the child writes `start <k>\n` before each run and
 * `<tag> <k> <len>\n<payload>` after it (an "ok" payload is the CRC'd
 * `run v3` record, so results stay bit-exact; other tags — "livelock",
 * "cancelled", "oom", "error" — carry the failure message). The
 * supervisor enforces the deadline and the cancel flag with SIGKILL,
 * parses whatever frames arrived before EOF, attributes a death to the
 * started-but-unframed run, and leaves later runs unreported so the
 * caller can re-dispatch just the remainder.
 *
 * This is also the chaos-injection seam: a campaign runFn that raises
 * SIGSEGV on a designated index exercises the real kill/reap/classify
 * path (tests/test_isolate.cc).
 */
ChildBatchOutcome runBatchInChild(std::size_t n,
                                  const std::function<SimResult(std::size_t)>
                                      &fn,
                                  const ChildLimits &limits);

/**
 * SIGKILL every child currently being supervised by runBatchInChild()
 * in this process. Async-signal-safe; the CLI's hard-exit SIGINT
 * handler calls it so a second Ctrl-C never leaves orphaned simulation
 * children burning CPU.
 */
void killLiveChildren();

/**
 * Deterministic exponential retry backoff: 0 for the first attempt or a
 * zero base, else base * 2^(attempt-1) * (1 + jitter) seconds, where
 * jitter in [0, 1) derives from splitSeed(@p seed, @p attempt) — the
 * same run backs off identically on every replay of the campaign, while
 * different runs decorrelate instead of thundering back together.
 * The exponent saturates at 2^16 so absurd attempt counts stay finite.
 */
double retryBackoffSeconds(unsigned attempt, std::uint64_t seed,
                           double base);

} // namespace smtavf

#endif // SMTAVF_SIM_ISOLATE_HH
