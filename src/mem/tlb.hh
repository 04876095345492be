/**
 * @file
 * Set-associative TLB model (Table 1: 128-entry 4-way ITLB, 256-entry
 * 4-way DTLB, 200-cycle miss penalty). Like Cache, it exposes an observer
 * interface so the AVF framework can track entry residency.
 */

#ifndef SMTAVF_MEM_TLB_HH
#define SMTAVF_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/arena.hh"
#include "base/types.hh"

namespace smtavf
{

/** TLB geometry and miss penalty. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t entries = 256;
    std::uint32_t ways = 4;
    std::uint32_t pageBytes = 8192;
    std::uint32_t missPenalty = 200;
};

/** Observer of TLB entry lifecycle (slot ids are stable). */
class TlbObserver
{
  public:
    virtual ~TlbObserver() = default;
    virtual void onFill(std::uint32_t slot, ThreadId tid, Cycle now) = 0;
    virtual void onHit(std::uint32_t slot, ThreadId tid, Cycle now) = 0;
    virtual void onEvict(std::uint32_t slot, Cycle now) = 0;
};

/** One TLB. Misses fill immediately; the penalty is returned as latency. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    void setObserver(TlbObserver *obs) { observer_ = obs; }

    /**
     * Translate the page of @p addr for @p tid. Returns the extra latency
     * this access pays: 0 on a hit, missPenalty on a miss (the entry is
     * filled, evicting LRU if needed).
     */
    std::uint32_t access(Addr addr, ThreadId tid, Cycle now);

    /**
     * Install the translation of @p addr without touching hit/miss stats
     * (cache pre-warming before cycle 0).
     */
    void prefill(Addr addr, ThreadId tid);

    /** Evict all entries (finalizes AVF intervals at end of run). */
    void flushAll(Cycle now);

    const TlbConfig &config() const { return cfg_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        auto total = hits_ + misses_;
        return total ? static_cast<double>(misses_) / total : 0.0;
    }

    /** Checkpoint hook: entries, LRU clock and hit/miss counters. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(entries_);
        ar(useClock_);
        ar(hits_);
        ar(misses_);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        ThreadId tid = invalidThread; ///< address spaces are per-thread
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(vpn);
            ar(tid);
            ar(lastUse);
        }
    };

    /**
     * Scan the set of (@p vpn, @p tid): its entry on a hit, else null
     * with @p victim set to the last invalid way, or the first least
     * recently used one when the set is full.
     */
    Entry *lookup(Addr vpn, ThreadId tid, Entry *&victim);
    /** Replace @p victim with (@p vpn, @p tid), notifying the observer. */
    void install(Entry &victim, Addr vpn, ThreadId tid, Cycle now);

    TlbConfig cfg_;
    std::uint32_t pageShift_;
    std::uint32_t sets_;
    AVec<Entry> entries_;
    TlbObserver *observer_ = nullptr;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_MEM_TLB_HH
