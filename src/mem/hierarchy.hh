/**
 * @file
 * The memory hierarchy of Table 1: IL1 (32KB/2-way/32B), DL1
 * (64KB/4-way/64B), unified L2 (2MB/4-way/128B, 12-cycle), 200-cycle
 * memory, plus ITLB/DTLB. Misses allocate MSHRs and fill after the full
 * latency; accesses to in-flight lines merge into the existing MSHR, and
 * their cache-content effects (byte reads/writes seen by the AVF observer)
 * apply when the fill lands.
 */

#ifndef SMTAVF_MEM_HIERARCHY_HH
#define SMTAVF_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "base/pool_alloc.hh"
#include "base/small_vec.hh"
#include "base/types.hh"
#include "ckpt/serializer.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace smtavf
{

/** Full hierarchy configuration (Table 1 defaults). */
struct MemConfig
{
    CacheConfig il1{"il1", 32 * 1024, 2, 32, 1, 2};
    CacheConfig dl1{"dl1", 64 * 1024, 4, 64, 1, 2};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 4, 128, 12, 1};
    TlbConfig itlb{"itlb", 128, 4, 8192, 200};
    TlbConfig dtlb{"dtlb", 256, 4, 8192, 200};
    std::uint32_t memLatency = 200;
};

/** Timing and classification of one memory access. */
struct MemOutcome
{
    Cycle ready = 0;      ///< cycle the data is available
    bool l1Miss = false;  ///< missed the first-level cache involved
    bool l2Miss = false;  ///< went all the way to memory
    bool tlbMiss = false; ///< paid a TLB fill on the way
};

/** IL1 + DL1 + L2 + DRAM with MSHRs and delayed fills. */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemConfig &cfg);

    /** Data load: DTLB + DL1 (+L2/DRAM). Fires AVF observer events. */
    MemOutcome load(ThreadId tid, Addr addr, std::uint32_t size, Cycle now);

    /** Store address translation at execute: returns the DTLB penalty. */
    std::uint32_t translateData(ThreadId tid, Addr addr, Cycle now);

    /**
     * Store data write at commit (write-allocate, write-back). Never
     * blocks commit; on a miss the write applies when the fill lands.
     */
    MemOutcome storeCommit(ThreadId tid, Addr addr, std::uint32_t size,
                           Cycle now);

    /** Instruction fetch of the line containing @p pc: ITLB + IL1. */
    MemOutcome fetch(ThreadId tid, Addr pc, Cycle now);

    /**
     * Land any fills whose latency has elapsed. Call once per cycle.
     * @return true when a fill landed
     */
    bool tick(Cycle now);

    /**
     * The earliest cycle an outstanding fill lands, at any level
     * (maxCycle when none is outstanding). Reads the MSHR maps only.
     */
    Cycle nextFill() const;

    /**
     * Drain all outstanding fills and flush caches/TLBs so the AVF
     * observers can close every open interval. Call once at end of run.
     * The L2 is flushed only when an observer is attached to it.
     */
    void finalize(Cycle now);

    /**
     * Replace the three MSHR maps by fresh default-constructed maps over
     * the same node pool. An emptied map keeps the bucket array it grew
     * to, while a fresh one starts from the implementation's default, and
     * the bucket count feeds the iteration order fills land in (see
     * MshrMap). The simulator calls this once a drain has emptied the
     * maps, so a run that continues past a drained boundary fills lines
     * in the same order as one restored from that boundary's checkpoint,
     * which starts with fresh maps. Allocation-free: the moved-from
     * temporaries start on libstdc++'s static single-bucket placeholder.
     */
    void renewMshrs();

    Cache &il1() { return il1_; }
    Cache &dl1() { return dl1_; }
    Cache &l2() { return l2_; }
    Tlb &itlb() { return itlb_; }
    Tlb &dtlb() { return dtlb_; }
    const MemConfig &config() const { return cfg_; }

    /** Outstanding DL1 miss count (used by fetch policies). */
    std::size_t outstandingDl1Misses() const { return dl1Mshrs_.size(); }

    /** All outstanding misses, every level (checkpoint drain detection). */
    std::size_t
    outstandingMisses() const
    {
        return il1Mshrs_.size() + dl1Mshrs_.size() + l2Mshrs_.size();
    }

    /**
     * Checkpoint hook: caches and TLBs only. The simulator checkpoints
     * exclusively at drained boundaries — outstandingMisses() == 0, the
     * drain-then-checkpoint policy of docs/CHECKPOINT.md — so the MSHR
     * maps are empty by construction and never travel. The Serializer
     * instantiation asserts that; restore starts with fresh empty maps.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        if constexpr (!Ar::loading) {
            if (outstandingMisses() != 0)
                throw CheckpointError(
                    "checkpoint capture with outstanding MSHRs "
                    "(drain-then-checkpoint violated)");
        }
        ar(il1_);
        ar(dl1_);
        ar(l2_);
        ar(itlb_);
        ar(dtlb_);
    }

  private:
    struct PendingOp
    {
        bool isWrite;
        Addr addr;
        std::uint32_t size;
        ThreadId tid;
    };

    struct Mshr
    {
        Cycle ready = 0;
        bool l2Miss = false;
        ThreadId tid = invalidThread;
        /** Merged accesses to the in-flight line; inline for short bursts. */
        SmallVec<PendingOp, 8> ops;
    };

    /**
     * MSHR table with pooled hash nodes: every miss used to allocate (and
     * every fill free) one map node on the global heap; the SlabPool
     * recycles them instead. drainMshrs() and tick() land fills in the
     * map's iteration order. In libstdc++ that order depends on the
     * hashes, the insertion sequence and the bucket count, which a map
     * keeps from its largest population since it was created (a rehash
     * reorders the nodes). It never depends on the allocator, so pooling
     * changed no drain order.
     */
    using MshrMap =
        std::unordered_map<Addr, Mshr, std::hash<Addr>, std::equal_to<Addr>,
                           PoolAlloc<std::pair<const Addr, Mshr>>>;

    /**
     * Common L1 access path: try @p l1; on miss, merge into or allocate an
     * MSHR whose fill time comes from the L2/DRAM path.
     */
    MemOutcome accessL1(Cache &l1, MshrMap &mshrs, ThreadId tid, Addr addr,
                        std::uint32_t size, bool is_write, Cycle now);

    /** L2 lookup/allocation for an L1 miss; returns data-ready cycle. */
    Cycle accessL2(ThreadId tid, Addr addr, Cycle now, bool &l2_miss);

    /** Land @p mshrs' matured fills (all when @p force); true if any. */
    bool drainMshrs(Cache &l1, MshrMap &mshrs, Cycle now, bool force);

    MemConfig cfg_;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    Tlb itlb_;
    Tlb dtlb_;

    /** Backing storage for the three MSHR maps' nodes (declared first). */
    std::shared_ptr<SlabPool> mshrPool_;

    MshrMap il1Mshrs_;
    MshrMap dl1Mshrs_;
    MshrMap l2Mshrs_;
};

} // namespace smtavf

#endif // SMTAVF_MEM_HIERARCHY_HH
