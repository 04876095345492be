/**
 * @file
 * Set-associative, write-back, write-allocate cache model with LRU
 * replacement and an observer interface through which the AVF framework
 * tracks per-byte liveness and tag residency without the memory model
 * depending on the AVF code.
 *
 * The cache is a content/placement model only; timing (latencies, MSHRs,
 * delayed fills) lives in MemHierarchy.
 */

#ifndef SMTAVF_MEM_CACHE_HH
#define SMTAVF_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/arena.hh"
#include "base/types.hh"

namespace smtavf
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t latency = 1; ///< access latency in cycles
    std::uint32_t ports = 2;   ///< accesses per cycle (enforced by the core)
};

/**
 * Callbacks fired as lines move through the cache. Slot ids are stable
 * (set * ways + way), so an observer can keep per-slot state.
 */
class CacheObserver
{
  public:
    virtual ~CacheObserver() = default;

    /** A line was installed into @p slot. */
    virtual void onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
                        Cycle now) = 0;

    /** Bytes [addr, addr+size) of the line in @p slot were read/written. */
    virtual void onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
                          bool is_write, ThreadId tid, Cycle now) = 0;

    /** The line in @p slot was evicted (dirty => writeback). */
    virtual void onEvict(std::uint32_t slot, bool dirty, Cycle now) = 0;
};

/** One cache level. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Attach at most one observer (may be null to detach). */
    void setObserver(CacheObserver *obs) { observer_ = obs; }

    /** True while an observer is attached. */
    bool observed() const { return observer_ != nullptr; }

    /** Hit test without any state change. */
    bool probe(Addr addr) const;

    /**
     * Reference bytes [addr, addr+size). On a hit: updates LRU, sets dirty
     * on writes, notifies the observer, returns true. On a miss returns
     * false without filling (the hierarchy decides when the fill lands).
     */
    bool access(Addr addr, std::uint32_t size, bool is_write, ThreadId tid,
                Cycle now);

    /**
     * Install the line containing @p addr, evicting the LRU victim (with
     * observer notification) if the set is full. No-op if already present.
     */
    void fill(Addr addr, ThreadId tid, Cycle now);

    /** Evict every resident line (used to finalize AVF at end of run). */
    void flushAll(Cycle now);

    const CacheConfig &config() const { return cfg_; }
    std::uint32_t numSets() const { return sets_; }
    std::uint32_t numLines() const { return sets_ * cfg_.ways; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        auto total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }

    /** Line-aligned address for @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~Addr{cfg_.lineBytes - 1}; }

    /**
     * Checkpoint hook: contents, LRU clock and hit/miss counters. The
     * observer is wiring, not state — the restoring simulator re-attaches
     * its own tracker, whose per-slot state is serialized separately.
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lines_);
        ar(useClock_);
        ar(hits_);
        ar(misses_);
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0; ///< full line address (simplifies debugging)
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(dirty);
            ar(tag);
            ar(lastUse);
        }
    };

    std::uint32_t setIndex(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    CacheConfig cfg_;
    std::uint32_t sets_;
    AVec<Line> lines_;
    CacheObserver *observer_ = nullptr;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_MEM_CACHE_HH
