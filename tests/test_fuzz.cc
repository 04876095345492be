/**
 * @file
 * Reference-model fuzz tests: drive the cache, TLB, ledger and windowed
 * AVF sampler with long random traces and compare against simple oracle
 * implementations written independently of the production code. The
 * cache and TLB are also held, state and observer call for call, to
 * their models before packed lines, one-scan fills and shift indexing.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "avf/interval_series.hh"
#include "avf/ledger.hh"
#include "base/rng.hh"
#include "ckpt/serializer.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace smtavf
{
namespace
{

// ---- cache vs. a naive LRU oracle -----------------------------------------

/** Oracle: per-set LRU lists of line addresses. */
class LruOracle
{
  public:
    LruOracle(std::uint32_t sets, std::uint32_t ways,
              std::uint32_t line_bytes)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes),
          lists_(sets)
    {
    }

    bool
    present(Addr addr) const
    {
        Addr line = addr & ~Addr{lineBytes_ - 1};
        const auto &l = lists_[setOf(addr)];
        for (Addr a : l)
            if (a == line)
                return true;
        return false;
    }

    /** Touch (hit refresh); returns hit. */
    bool
    touch(Addr addr)
    {
        Addr line = addr & ~Addr{lineBytes_ - 1};
        auto &l = lists_[setOf(addr)];
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == line) {
                l.erase(it);
                l.push_front(line);
                return true;
            }
        }
        return false;
    }

    void
    fill(Addr addr)
    {
        Addr line = addr & ~Addr{lineBytes_ - 1};
        auto &l = lists_[setOf(addr)];
        for (Addr a : l)
            if (a == line)
                return;
        if (l.size() >= ways_)
            l.pop_back();
        l.push_front(line);
    }

  private:
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr / lineBytes_) & (sets_ - 1);
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t lineBytes_;
    std::vector<std::list<Addr>> lists_;
};

TEST(FuzzCache, MatchesLruOracleOverRandomTrace)
{
    CacheConfig cfg{"fuzz", 4096, 4, 64, 1, 2}; // 16 sets x 4 ways
    Cache cache(cfg);
    LruOracle oracle(cache.numSets(), cfg.ways, cfg.lineBytes);
    Rng rng(0xfeed);

    for (int i = 0; i < 200000; ++i) {
        // Footprint ~4x capacity so evictions are constant.
        Addr addr = rng.uniform(16 * 1024) & ~Addr{3};
        bool is_write = rng.bernoulli(0.3);
        bool hit = cache.access(addr, 4, is_write, 0, i);
        bool oracle_hit = oracle.touch(addr);
        ASSERT_EQ(hit, oracle_hit) << "step " << i << " addr " << addr;
        if (!hit) {
            cache.fill(addr, 0, i);
            oracle.fill(addr);
        }
    }
}

TEST(FuzzCache, ProbeAgreesWithOracleUnderMixedOps)
{
    CacheConfig cfg{"fuzz2", 2048, 2, 32, 1, 2};
    Cache cache(cfg);
    LruOracle oracle(cache.numSets(), cfg.ways, cfg.lineBytes);
    Rng rng(0xdead);

    for (int i = 0; i < 100000; ++i) {
        Addr addr = rng.uniform(8 * 1024) & ~Addr{3};
        switch (rng.uniform(4)) {
          case 0:
            ASSERT_EQ(cache.probe(addr), oracle.present(addr));
            break;
          case 1:
            if (cache.access(addr, 4, false, 0, i) != oracle.touch(addr))
                FAIL() << "divergence at step " << i;
            break;
          case 2: {
            // An unaligned range of up to a quarter of the capacity.
            std::uint64_t size = rng.uniform(513);
            cache.prefill(addr + 1, size, 0, i);
            for (Addr a = addr + 1; a < addr + 1 + size; a += cfg.lineBytes)
                oracle.fill(a);
            break;
          }
          default:
            cache.fill(addr, 0, i);
            oracle.fill(addr);
            break;
        }
    }
}

// ---- TLB vs. oracle ---------------------------------------------------------

TEST(FuzzTlb, MatchesLruOracleWithThreadTags)
{
    TlbConfig cfg{"fuzz", 64, 4, 8192, 200};
    Tlb tlb(cfg);
    // Oracle keyed by (tid, vpn) folded into one address space: the TLB
    // tags entries by thread, equivalent to disjoint vpn ranges.
    Rng rng(0xbeef);

    // Reference: per-set LRU of (vpn, tid) pairs.
    struct Key
    {
        Addr vpn;
        ThreadId tid;
        bool operator==(const Key &o) const
        {
            return vpn == o.vpn && tid == o.tid;
        }
    };
    std::vector<std::list<Key>> sets(16);

    for (int i = 0; i < 100000; ++i) {
        ThreadId tid = static_cast<ThreadId>(rng.uniform(4));
        Addr addr = rng.uniform(64) * 8192 + rng.uniform(8192);
        Addr vpn = addr / 8192;
        auto &l = sets[vpn % 16];

        bool oracle_hit = false;
        for (auto it = l.begin(); it != l.end(); ++it) {
            if (*it == Key{vpn, tid}) {
                l.erase(it);
                l.push_front({vpn, tid});
                oracle_hit = true;
                break;
            }
        }
        if (!oracle_hit) {
            if (l.size() >= 4)
                l.pop_back();
            l.push_front({vpn, tid});
        }

        auto penalty = tlb.access(addr, tid, i);
        ASSERT_EQ(penalty == 0, oracle_hit) << "step " << i;
    }
}

// ---- cache and TLB vs. their pre-packing models -----------------------------

/** Observer calls of a cache or a TLB, in order. */
class CallLog : public CacheObserver, public TlbObserver
{
  public:
    struct Call
    {
        char kind; ///< cache 'F' 'A' 'E', TLB 'f' 'h' 'e'
        std::uint32_t slot;
        Addr addr;
        std::uint32_t size;
        bool flag; ///< write (access) or dirty (eviction)
        ThreadId tid;
        Cycle now;

        bool
        operator==(const Call &o) const
        {
            return kind == o.kind && slot == o.slot && addr == o.addr &&
                   size == o.size && flag == o.flag && tid == o.tid &&
                   now == o.now;
        }
    };

    void
    onFill(std::uint32_t slot, Addr line_addr, ThreadId tid,
           Cycle now) override
    {
        calls.push_back({'F', slot, line_addr, 0, false, tid, now});
    }

    void
    onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
             bool is_write, ThreadId tid, Cycle now) override
    {
        calls.push_back({'A', slot, addr, size, is_write, tid, now});
    }

    void
    onEvict(std::uint32_t slot, bool dirty, Cycle now) override
    {
        calls.push_back({'E', slot, 0, 0, dirty, 0, now});
    }

    void
    onFill(std::uint32_t slot, ThreadId tid, Cycle now) override
    {
        calls.push_back({'f', slot, 0, 0, false, tid, now});
    }

    void
    onHit(std::uint32_t slot, ThreadId tid, Cycle now) override
    {
        calls.push_back({'h', slot, 0, 0, false, tid, now});
    }

    void
    onEvict(std::uint32_t slot, Cycle now) override
    {
        calls.push_back({'e', slot, 0, 0, false, 0, now});
    }

    std::vector<Call> calls;
};

/**
 * The cache before its lines were packed: separate valid and dirty
 * flags in a 24-byte line, the set index by division, one scan for a
 * hit and a second for the victim, and range fills as the per-line
 * loop Simulator::prewarm ran. Serializes in Cache's wire format, so
 * equal bytes mean equal lines, stamps, useClock_ and hit/miss counts.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.sizeBytes / cfg.lineBytes / cfg.ways),
          lines_(cfg.sizeBytes / cfg.lineBytes)
    {
    }

    void setObserver(CacheObserver *obs) { observer_ = obs; }

    bool
    access(Addr addr, std::uint32_t size, bool is_write, ThreadId tid,
           Cycle now)
    {
        Line *line = findLine(addr);
        if (!line) {
            ++misses_;
            return false;
        }
        ++hits_;
        line->lastUse = ++useClock_;
        if (is_write)
            line->dirty = true;
        if (observer_)
            observer_->onAccess(slotOf(line), addr, size, is_write, tid,
                                now);
        return true;
    }

    void
    fill(Addr addr, ThreadId tid, Cycle now)
    {
        if (findLine(addr))
            return;
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            Line &line = lines_[setIndex(addr) * cfg_.ways + w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid && observer_)
            observer_->onEvict(slotOf(victim), victim->dirty, now);
        Addr line_addr = addr & ~Addr{cfg_.lineBytes - 1};
        *victim = {true, false, line_addr, ++useClock_};
        if (observer_)
            observer_->onFill(slotOf(victim), line_addr, tid, now);
    }

    void
    prefill(Addr base, std::uint64_t size, ThreadId tid, Cycle now)
    {
        for (Addr a = base; a < base + size; a += cfg_.lineBytes)
            fill(a, tid, now);
    }

    void
    flushAll(Cycle now)
    {
        for (Line &line : lines_) {
            if (!line.valid)
                continue;
            if (observer_)
                observer_->onEvict(slotOf(&line), line.dirty, now);
            line.valid = false;
            line.dirty = false;
        }
    }

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
        Addr tag = 0;
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

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>(addr / cfg_.lineBytes) &
               (sets_ - 1);
    }

    Line *
    findLine(Addr addr)
    {
        Addr line_addr = addr & ~Addr{cfg_.lineBytes - 1};
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            Line &line = lines_[setIndex(addr) * cfg_.ways + w];
            if (line.valid && line.tag == line_addr)
                return &line;
        }
        return nullptr;
    }

    std::uint32_t
    slotOf(const Line *line) const
    {
        return static_cast<std::uint32_t>(line - lines_.data());
    }

    CacheConfig cfg_;
    std::uint32_t sets_;
    std::vector<Line> lines_;
    CacheObserver *observer_ = nullptr;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** The TLB before it indexed by shift: the page number by division. */
class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &cfg)
        : cfg_(cfg), sets_(cfg.entries / cfg.ways), entries_(cfg.entries)
    {
    }

    void setObserver(TlbObserver *obs) { observer_ = obs; }

    std::uint32_t
    access(Addr addr, ThreadId tid, Cycle now)
    {
        Addr vpn = addr / cfg_.pageBytes;
        Entry *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            Entry &e = entries_[setOf(vpn) * cfg_.ways + w];
            if (e.valid && e.vpn == vpn && e.tid == tid) {
                e.lastUse = ++useClock_;
                ++hits_;
                if (observer_)
                    observer_->onHit(slotOf(&e), tid, now);
                return 0;
            }
            if (!victim || !e.valid ||
                (victim->valid && e.lastUse < victim->lastUse))
                victim = &e;
        }
        ++misses_;
        install(victim, vpn, tid, now);
        return cfg_.missPenalty;
    }

    void
    prefill(Addr addr, ThreadId tid)
    {
        Addr vpn = addr / cfg_.pageBytes;
        Entry *victim = nullptr;
        for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
            Entry &e = entries_[setOf(vpn) * cfg_.ways + w];
            if (e.valid && e.vpn == vpn && e.tid == tid)
                return;
            if (!victim || !e.valid ||
                (victim->valid && e.lastUse < victim->lastUse))
                victim = &e;
        }
        install(victim, vpn, tid, 0);
    }

    void
    flushAll(Cycle now)
    {
        for (Entry &e : entries_) {
            if (!e.valid)
                continue;
            if (observer_)
                observer_->onEvict(slotOf(&e), now);
            e.valid = false;
        }
    }

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
        ThreadId tid = invalidThread;
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

    std::uint32_t
    setOf(Addr vpn) const
    {
        return static_cast<std::uint32_t>(vpn) & (sets_ - 1);
    }

    std::uint32_t
    slotOf(const Entry *e) const
    {
        return static_cast<std::uint32_t>(e - entries_.data());
    }

    void
    install(Entry *victim, Addr vpn, ThreadId tid, Cycle now)
    {
        if (victim->valid && observer_)
            observer_->onEvict(slotOf(victim), now);
        *victim = {true, vpn, tid, ++useClock_};
        if (observer_)
            observer_->onFill(slotOf(victim), tid, now);
    }

    TlbConfig cfg_;
    std::uint32_t sets_;
    std::vector<Entry> entries_;
    TlbObserver *observer_ = nullptr;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

template <class T>
std::string
wireBytes(T &model)
{
    Serializer ser;
    model.serialize(ser);
    return ser.take();
}

/** Replace @p model by a fresh one loaded from its own wire bytes. */
template <class T, class Config, class Observer>
void
roundTrip(std::unique_ptr<T> &model, const Config &cfg, Observer *obs)
{
    const std::string bytes = wireBytes(*model);
    auto fresh = std::make_unique<T>(cfg);
    Deserializer des(bytes);
    fresh->serialize(des);
    ASSERT_TRUE(des.exhausted());
    fresh->setObserver(obs);
    model = std::move(fresh);
    ASSERT_EQ(wireBytes(*model), bytes);
}

/**
 * An address in one of two regions: near zero, or near the top of the
 * address space, where a 1-byte line's tag uses every bit.
 */
Addr
randomAddr(Rng &rng, std::uint64_t footprint)
{
    Addr region = rng.bernoulli(0.2) ? ~Addr{0} << 40 : 0;
    return region + rng.uniform(footprint);
}

TEST(FuzzCache, PrefillAndFillMatchPerLineReference)
{
    Rng rng(0xc0ffee);
    for (int g = 0; g < 120; ++g) {
        // 1-8 ways, 1-128 byte lines, 1-32 sets.
        auto ways = static_cast<std::uint32_t>(rng.uniformRange(1, 8));
        std::uint32_t line = 1u << rng.uniform(8);
        std::uint32_t sets = 1u << rng.uniform(6);
        CacheConfig cfg{"diff", sets * ways * line, ways, line, 1, 2};
        const std::uint64_t capacity = cfg.sizeBytes;
        const bool observed = g % 2 == 0;
        SCOPED_TRACE(testing::Message()
                     << "geometry " << g << ": " << ways << " ways, "
                     << line << "-byte lines, " << sets << " sets, "
                     << (observed ? "observed" : "unobserved"));

        auto cache = std::make_unique<Cache>(cfg);
        RefCache ref(cfg);
        CallLog got, want;
        if (observed) {
            cache->setObserver(&got);
            ref.setObserver(&want);
        }

        for (Cycle now = 1; now <= 400; ++now) {
            auto tid = static_cast<ThreadId>(rng.uniform(4));
            Addr addr = randomAddr(rng, 4 * capacity);
            const std::uint64_t op = rng.uniform(20);
            if (op < 7) {
                auto size = static_cast<std::uint32_t>(rng.uniformRange(1, 8));
                bool write = rng.bernoulli(0.4);
                ASSERT_EQ(cache->access(addr, size, write, tid, now),
                          ref.access(addr, size, write, tid, now))
                    << "step " << now;
            } else if (op < 11) {
                cache->fill(addr, tid, now);
                ref.fill(addr, tid, now);
            } else if (op < 18) {
                // Up to twice the capacity, so a range can evict itself.
                std::uint64_t size = rng.uniform(2 * capacity + 2);
                cache->prefill(addr, size, tid, now);
                ref.prefill(addr, size, tid, now);
            } else if (op < 19) {
                cache->flushAll(now);
                ref.flushAll(now);
            } else {
                roundTrip(cache, cfg, observed ? &got : nullptr);
            }
            ASSERT_EQ(wireBytes(*cache), wireBytes(ref)) << "step " << now;
            ASSERT_EQ(got.calls, want.calls) << "step " << now;
            got.calls.clear();
            want.calls.clear();
        }
    }
}

TEST(FuzzTlb, AccessAndPrefillMatchDivisionReference)
{
    Rng rng(0x7157);
    for (int g = 0; g < 120; ++g) {
        auto ways = static_cast<std::uint32_t>(rng.uniformRange(1, 8));
        std::uint32_t sets = 1u << rng.uniform(5);
        std::uint32_t page = 1u << rng.uniform(14);
        TlbConfig cfg{"diff", sets * ways, ways, page, 200};
        const bool observed = g % 2 == 0;
        SCOPED_TRACE(testing::Message()
                     << "geometry " << g << ": " << ways << " ways, "
                     << sets << " sets, " << page << "-byte pages, "
                     << (observed ? "observed" : "unobserved"));

        auto tlb = std::make_unique<Tlb>(cfg);
        RefTlb ref(cfg);
        CallLog got, want;
        if (observed) {
            tlb->setObserver(&got);
            ref.setObserver(&want);
        }

        const std::uint64_t footprint = std::uint64_t{4} * sets * ways * page;
        for (Cycle now = 1; now <= 400; ++now) {
            auto tid = static_cast<ThreadId>(rng.uniform(3));
            Addr addr = randomAddr(rng, footprint);
            const std::uint64_t op = rng.uniform(20);
            if (op < 10) {
                ASSERT_EQ(tlb->access(addr, tid, now),
                          ref.access(addr, tid, now))
                    << "step " << now;
            } else if (op < 18) {
                // Simulator::prewarm's page loop over an unaligned range.
                std::uint64_t pages = rng.uniform(2 * sets * ways + 2);
                for (std::uint64_t p = 0; p < pages; ++p) {
                    tlb->prefill(addr + p * page, tid);
                    ref.prefill(addr + p * page, tid);
                }
            } else if (op < 19) {
                tlb->flushAll(now);
                ref.flushAll(now);
            } else {
                roundTrip(tlb, cfg, observed ? &got : nullptr);
            }
            ASSERT_EQ(wireBytes(*tlb), wireBytes(ref)) << "step " << now;
            ASSERT_EQ(got.calls, want.calls) << "step " << now;
            got.calls.clear();
            want.calls.clear();
        }
    }
}

// ---- ledger vs. brute-force accumulation -------------------------------------

TEST(FuzzLedger, MatchesBruteForceAccumulation)
{
    Rng rng(0xabcd);
    AvfLedger ledger(4);
    ledger.setStructureBits(HwStruct::IQ, 1u << 20);

    double ace[4] = {};
    double unace = 0;
    for (int i = 0; i < 50000; ++i) {
        auto tid = static_cast<ThreadId>(rng.uniform(4));
        Cycle start = rng.uniform(10000);
        Cycle end = start + rng.uniform(500);
        auto bits = static_cast<std::uint32_t>(rng.uniformRange(1, 128));
        bool is_ace = rng.bernoulli(0.5);
        ledger.addInterval(HwStruct::IQ, tid, bits, start, end, is_ace);
        double bc = static_cast<double>(bits) * (end - start);
        if (is_ace)
            ace[tid] += bc;
        else
            unace += bc;
    }
    ledger.finalize(10500);

    double total_ace = ace[0] + ace[1] + ace[2] + ace[3];
    double denom = static_cast<double>(1u << 20) * 10500;
    EXPECT_NEAR(ledger.avf(HwStruct::IQ), total_ace / denom, 1e-12);
    EXPECT_NEAR(ledger.occupancy(HwStruct::IQ),
                (total_ace + unace) / denom, 1e-12);
    for (ThreadId t = 0; t < 4; ++t)
        EXPECT_NEAR(ledger.threadAvf(HwStruct::IQ, t), ace[t] / denom,
                    1e-12);
}

TEST(FuzzTimeline, WindowDeltasSumToLedgerTotal)
{
    // The one sampler under both window units: 100 cycles, or 100
    // committed instructions (one commit per booked interval).
    for (auto unit : {AvfIntervalSeries::Unit::Cycles,
                      AvfIntervalSeries::Unit::Instructions}) {
        SCOPED_TRACE(unit == AvfIntervalSeries::Unit::Cycles
                         ? "cycle windows"
                         : "instruction windows");
        Rng rng(0x1357);
        AvfLedger ledger(1);
        ledger.setStructureBits(HwStruct::ROB, 1u << 16);
        AvfIntervalSeries series(ledger, unit, 100);
        series.arm(0, 0);

        std::uint64_t booked = 0;
        std::uint64_t committed = 0;
        Cycle now = 0;
        for (int i = 0; i < 5000; ++i) {
            now += rng.uniform(5);
            series.tick(committed, now);
            Cycle start = now > 50 ? now - rng.uniform(50) : 0;
            auto bits = static_cast<std::uint32_t>(rng.uniformRange(1, 64));
            ledger.addInterval(HwStruct::ROB, 0, bits, start, now, true);
            booked += static_cast<std::uint64_t>(bits) * (now - start);
            ++committed;
        }
        series.finish(committed, now + 1);

        double windowed = 0;
        // Reconstruct total ACE mass from per-window AVF x window length.
        double bits_total = static_cast<double>(1u << 16);
        for (const auto &row : series.data())
            windowed += row.avf[static_cast<std::size_t>(HwStruct::ROB)] *
                        bits_total *
                        static_cast<double>(row.endCycle - row.startCycle);
        EXPECT_NEAR(windowed, static_cast<double>(booked),
                    static_cast<double>(booked) * 1e-9);
    }
}

} // namespace
} // namespace smtavf
