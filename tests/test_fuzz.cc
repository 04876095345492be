/**
 * @file
 * Reference-model fuzz tests: drive the cache, TLB, ledger and windowed
 * AVF sampler with long random traces and compare against simple oracle
 * implementations written independently of the production code.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "avf/interval_series.hh"
#include "avf/ledger.hh"
#include "base/rng.hh"
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
        switch (rng.uniform(3)) {
          case 0:
            ASSERT_EQ(cache.probe(addr), oracle.present(addr));
            break;
          case 1:
            if (cache.access(addr, 4, false, 0, i) != oracle.touch(addr))
                FAIL() << "divergence at step " << i;
            break;
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
