/**
 * @file
 * SMT instruction-fetch policies (the paper's Section 4.3).
 *
 * A fetch policy decides, each cycle, which threads may fetch and in what
 * priority order. The six studied policies:
 *
 *  - ICOUNT (Tullsen et al., ISCA'96): priority to the thread with the
 *    fewest in-flight front-end + IQ instructions. The baseline.
 *  - FLUSH (Tullsen & Brown, MICRO'01): on an L2 data miss, squash the
 *    offending thread's instructions younger than the missing load and
 *    gate its fetch until the miss returns.
 *  - STALL (Tullsen & Brown, MICRO'01): gate threads with an outstanding
 *    L2 data miss, but always leave at least one thread fetching.
 *  - DG (El-Moursy & Albonesi, HPCA'03): gate a thread once it has
 *    several outstanding L1 data misses.
 *  - PDG (El-Moursy & Albonesi, HPCA'03): like DG but counts *predicted*
 *    L1 misses at fetch so gating starts before the misses resolve.
 *  - DWarn (Cazorla et al., IPDPS'04): never gates; threads with
 *    outstanding data-cache misses simply get the lowest fetch priority.
 *
 * The policy sees the core through the PolicyContext interface (no
 * circular dependency) and receives load-execution callbacks to maintain
 * its own state.
 */

#ifndef SMTAVF_POLICY_FETCH_POLICY_HH
#define SMTAVF_POLICY_FETCH_POLICY_HH

#include <memory>
#include <string>
#include <vector>

#include "avf/structures.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "ckpt/serializer.hh"
#include "isa/instr.hh"

namespace smtavf
{

struct ProtectionConfig;
class AvfLedger;

/**
 * Selector for building a policy by name/config. Beyond the paper's six
 * studied policies, two extensions implement its Section-5 proposals:
 *
 *  - PStall: STALL enhanced with an L2-miss predictor so fetch is gated
 *    the moment a predicted-missing load *enters* the pipeline, before
 *    any of its ACE bits accumulate ("If the L2 cache misses can be
 *    predicted when the offending instruction enters the pipeline, fetch
 *    can be stalled immediately").
 *  - Rat: reliability-aware throttling — prioritize by (and cap) each
 *    thread's in-flight *correct-path* (ACE-candidate) population rather
 *    than its raw instruction count.
 *  - PRat: protection-aware RAT — weight each in-flight correct-path
 *    instruction by the residual (uncovered) fraction of the structures
 *    the thread occupies, so throughput is never spent shading bits that
 *    SECDED already covers (policy/prat.hh, docs/PROTECTION.md).
 */
enum class FetchPolicyKind
{
    RoundRobin,
    Icount,
    Flush,
    Stall,
    Dg,
    Pdg,
    DWarn,
    PStall,
    Rat,
    PRat
};

const char *fetchPolicyName(FetchPolicyKind kind);

/**
 * Parse a policy name (case-insensitive, e.g. "flush", "ICOUNT").
 * @retval true and sets @p out on success.
 */
bool parseFetchPolicy(const std::string &name, FetchPolicyKind &out);

/** All selectable policy kinds, in display order. */
const std::vector<FetchPolicyKind> &allFetchPolicies();

/**
 * Policy tuning knobs carried by MachineConfig (mirrored there as flat
 * fields so validation and the experiment fingerprint price them
 * individually). Only PRat reads them today.
 */
struct FetchPolicyTuning
{
    /** PRat: cycles between ledger-measured residual refreshes. */
    Cycle pratEpoch = 4096;
    /** PRat: throttle cap (0 = derive the RAT default, 2x fair share). */
    unsigned pratCap = 0;
};

/** The slice of core state fetch policies may observe and act on. */
class PolicyContext
{
  public:
    virtual ~PolicyContext() = default;

    virtual unsigned numThreads() const = 0;

    /** ICOUNT metric: front-end + issue-queue occupancy of a thread. */
    virtual unsigned inFlightCount(ThreadId tid) const = 0;

    /**
     * Like inFlightCount but excluding known wrong-path instructions —
     * an estimate of the thread's in-flight ACE population (used by the
     * reliability-aware throttling extension).
     */
    virtual unsigned inFlightCorrectPath(ThreadId tid) const = 0;

    /** Outstanding L1 data misses issued by a thread. */
    virtual unsigned outstandingL1D(ThreadId tid) const = 0;

    /** Outstanding L2 data misses issued by a thread. */
    virtual unsigned outstandingL2D(ThreadId tid) const = 0;

    /**
     * FLUSH's action: squash thread @p tid's instructions with
     * seq > @p seq and rewind fetch.
     */
    virtual void flushAfter(ThreadId tid, SeqNum seq) = 0;

    // The protection-aware slice, consulted by PRat only. Defaulted (not
    // pure) so scripted test contexts and cores without an AVF overlay
    // keep compiling; the defaults make PRat degrade to exact RAT
    // behaviour (no occupancy -> conservative full-residual weight, no
    // ledger -> the measured correction never engages).

    /** Entries thread @p tid holds in structure @p s right now. */
    virtual unsigned
    structOccupancy(HwStruct s, ThreadId tid) const
    {
        (void)s;
        (void)tid;
        return 0;
    }

    /** The run's protection assignment; nullptr = nothing protected. */
    virtual const ProtectionConfig *protectionConfig() const
    {
        return nullptr;
    }

    /** The live AVF ledger; nullptr = no measured-residual correction. */
    virtual const AvfLedger *avfLedger() const { return nullptr; }
};

/** Base class of all fetch policies. */
class FetchPolicy
{
  public:
    explicit FetchPolicy(PolicyContext &ctx) : ctx_(ctx) {}
    virtual ~FetchPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Threads allowed to fetch this cycle, highest priority first.
     * Gated threads are omitted. The returned reference points into
     * policy-owned scratch storage and is valid until the next
     * fetchOrder call — callers must not hold it across cycles. (The
     * by-reference contract keeps the once-per-cycle call allocation-free.)
     */
    virtual const std::vector<ThreadId> &fetchOrder(Cycle now) = 0;

    /**
     * True when fetchOrder() changes the policy's own state on every
     * call, so a cycle that fetches nothing still changes the machine
     * and the core never jumps its clock over it (SmtCore::quietUntil).
     * The core reads this once, at construction.
     */
    virtual bool fetchOrderMutates() const { return false; }

    // The three notifications below pass the in-flight instruction
    // itself, so a policy may keep per-instruction state in it (PDG's
    // DynInstr::predictedMiss).

    /** A load executed; @p l1_miss / @p l2_miss classify its outcome. */
    virtual void
    onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss)
    {
        (void)load; (void)l1_miss; (void)l2_miss;
    }

    /** A previously missing load finished (data returned) or squashed. */
    virtual void
    onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss)
    {
        (void)load; (void)l1_miss; (void)l2_miss;
    }

    /** An instruction was fetched (PDG predicts load misses here). */
    virtual void onFetch(DynInstr &in) { (void)in; }

    /**
     * Checkpoint hooks. Checkpoints are captured at a *drained* boundary
     * (no instruction in flight, no outstanding miss), so the only policy
     * state that travels is what outlives the pipeline: learned predictor
     * tables and cumulative counters. Per-instruction bookkeeping (gates,
     * in-flight maps) is empty/inactive at the boundary by construction
     * and is reset on load instead of serialized. Stateless policies keep
     * the no-op defaults.
     */
    virtual void saveState(Serializer &ar) { (void)ar; }
    virtual void loadState(Deserializer &ar) { (void)ar; }

    /**
     * Worker-reuse hook: back to the exact freshly constructed state —
     * untrained predictor tables, no gates, zeroed counters. The scratch
     * vectors (rank_/order_/keys_) are pure per-call outputs and need no
     * touch. Stateless policies keep this no-op default. Allocation-free.
     */
    virtual void reset() {}

  protected:
    /**
     * Threads sorted by ascending in-flight count (ICOUNT order). Fills
     * and returns rank_; like fetchOrder, valid until the next call.
     */
    const std::vector<ThreadId> &icountOrder();

    /**
     * Stable ascending sort of @p ids by keys[id] — insertion sort, which
     * is both the fastest choice for the <= 8 threads a core runs and
     * allocation-free (std::stable_sort grabs a temporary buffer from the
     * heap on every call, which the steady-state tick loop must not do).
     * Equal keys keep their relative order, matching std::stable_sort
     * exactly.
     */
    static void
    stableSortByKey(std::vector<ThreadId> &ids,
                    const std::vector<unsigned> &keys)
    {
        for (std::size_t i = 1; i < ids.size(); ++i) {
            ThreadId t = ids[i];
            unsigned k = keys[t];
            std::size_t j = i;
            for (; j > 0 && keys[ids[j - 1]] > k; --j)
                ids[j] = ids[j - 1];
            ids[j] = t;
        }
    }

    PolicyContext &ctx_;
    /** Scratch for the full priority ranking (reused every cycle). */
    std::vector<ThreadId> rank_;
    /** Scratch for the filtered (gate-applied) order (reused every cycle). */
    std::vector<ThreadId> order_;
    /**
     * Scratch for per-thread sort keys: sampling the occupancy metric once
     * per thread keeps the (virtual) PolicyContext probes out of the sort
     * comparator. The metric cannot change mid-sort, so the ordering is
     * identical to querying inside the comparator.
     */
    std::vector<unsigned> keys_;
};

/**
 * Factory covering every FetchPolicyKind. The policy object is placed in
 * the calling thread's construction arena when one is installed
 * (base/arena.hh), on the heap otherwise — either way the ArenaPtr
 * destroys it correctly. @p tuning carries the PRat knobs; other kinds
 * ignore it.
 */
ArenaPtr<FetchPolicy> makeFetchPolicy(FetchPolicyKind kind,
                                      PolicyContext &ctx,
                                      const FetchPolicyTuning &tuning = {});

} // namespace smtavf

#endif // SMTAVF_POLICY_FETCH_POLICY_HH
