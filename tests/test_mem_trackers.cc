/**
 * @file
 * Unit tests for the address-based AVF trackers (DL1 per-byte data, DL1
 * tag, TLB), checking each classification rule of the Biswas model, and
 * a differential test holding CacheVulnTracker's packed units and
 * per-line ledger batches against a per-unit reference model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "avf/mem_trackers.hh"
#include "base/rng.hh"
#include "ckpt/serializer.hh"

namespace smtavf
{
namespace
{

class CacheTrackerTest : public ::testing::Test
{
  protected:
    CacheTrackerTest()
        : ledger(1), cache({"dl1", 1024, 2, 64, 1, 2}),
          tracker(cache, ledger, HwStruct::Dl1Data, HwStruct::Dl1Tag, true)
    {
    }

    AvfLedger ledger;
    Cache cache;
    CacheVulnTracker tracker;
};

TEST_F(CacheTrackerTest, RegistersStructureBits)
{
    EXPECT_EQ(ledger.structureBits(HwStruct::Dl1Data), 1024u * 8);
    EXPECT_EQ(ledger.structureBits(HwStruct::Dl1Tag),
              16u * tracker.tagBitsPerLine());
}

TEST_F(CacheTrackerTest, FillToReadIsAce)
{
    cache.fill(0x1000, 0, 10);
    cache.access(0x1000, 4, false, 0, 50); // read 4 bytes at +40 cycles
    // Interval [10,50] on 4 bytes ended in a read: 4*8*40 ACE bit-cycles.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 4u * 8 * 40);
}

TEST_F(CacheTrackerTest, FillToEvictionWithoutReadIsUnAce)
{
    cache.fill(0x1000, 0, 10);
    cache.flushAll(110);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dl1Data), 64u * 8 * 100);
}

TEST_F(CacheTrackerTest, ReadToCleanEvictionTailIsUnAce)
{
    cache.fill(0x1000, 0, 0);
    cache.access(0x1000, 4, false, 0, 40);
    cache.flushAll(100);
    // ACE: the 4 read bytes for [0,40]. Un-ACE: their tail [40,100] plus
    // the other 60 bytes for [0,100].
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 4u * 8 * 40);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dl1Data),
              4u * 8 * 60 + 60u * 8 * 100);
}

TEST_F(CacheTrackerTest, OverwriteMakesPriorIntervalUnAce)
{
    cache.fill(0x1000, 0, 0);
    cache.access(0x1000, 4, true, 0, 30); // store over bytes 0-3
    // [0,30] ended in an overwrite: un-ACE.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dl1Data), 4u * 8 * 30);
}

TEST_F(CacheTrackerTest, DirtyBytesAreAceUntilEviction)
{
    cache.fill(0x1000, 0, 0);
    cache.access(0x1000, 4, true, 0, 30);
    cache.flushAll(100);
    // The written bytes must survive to writeback: [30,100] ACE.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 4u * 8 * 70);
}

TEST_F(CacheTrackerTest, DirtyLineTagIsAceForWholeResidency)
{
    cache.fill(0x1000, 0, 10);
    cache.access(0x1000, 4, true, 0, 30);
    cache.flushAll(110);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Tag),
              tracker.tagBitsPerLine() * 100u);
}

TEST_F(CacheTrackerTest, CleanLineTagAceOnlyUntilLastAccess)
{
    cache.fill(0x1000, 0, 10);
    cache.access(0x1000, 8, false, 0, 60);
    cache.flushAll(110);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Tag),
              tracker.tagBitsPerLine() * 50u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dl1Tag),
              tracker.tagBitsPerLine() * 50u);
}

TEST_F(CacheTrackerTest, UntouchedCleanLineTagIsFullyUnAce)
{
    cache.fill(0x1000, 0, 10);
    cache.flushAll(110);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Tag), 0u);
}

TEST_F(CacheTrackerTest, RereadExtendsAceCoverage)
{
    cache.fill(0x1000, 0, 0);
    cache.access(0x1000, 4, false, 0, 20);
    cache.access(0x1000, 4, false, 0, 80);
    // Both [0,20] and [20,80] end in reads.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 4u * 8 * 80);
}

TEST_F(CacheTrackerTest, EvictionViaCapacityClosesIntervals)
{
    // 2-way set: the third fill in one set evicts the LRU victim.
    cache.fill(0x0000, 0, 0);
    cache.fill(0x2000, 0, 1);
    cache.access(0x0000, 4, false, 0, 10); // refresh 0x0000
    cache.fill(0x4000, 0, 50);             // evicts untouched 0x2000
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_TRUE(cache.probe(0x0000));
    // 0x2000's 64 untouched bytes resolved un-ACE over [1,50].
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dl1Data), 64u * 8 * 49);
}

TEST(CacheTrackerPerLine, PerLineModeTouchesWholeLine)
{
    AvfLedger ledger(1);
    Cache cache({"dl1", 1024, 2, 64, 1, 2});
    CacheVulnTracker tracker(cache, ledger, HwStruct::Dl1Data,
                             HwStruct::Dl1Tag, /*per_byte=*/false);
    cache.fill(0x1000, 0, 0);
    cache.access(0x1000, 4, false, 0, 40);
    // The whole 64-byte line counts as read.
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dl1Data), 64u * 8 * 40);
}

TEST(TlbTrackerTest, EntryAceBetweenUsesUnAceTail)
{
    AvfLedger ledger(1);
    Tlb tlb({"dtlb", 8, 2, 8192, 200});
    TlbVulnTracker tracker(tlb, ledger, HwStruct::Dtlb);

    tlb.access(0x10000, 0, 10);  // miss + fill
    tlb.access(0x10000, 0, 60);  // hit: [10,60] ACE
    tlb.flushAll(110);           // tail [60,110] un-ACE
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dtlb), bits::tlbEntry * 50u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dtlb), bits::tlbEntry * 50u);
}

TEST(TlbTrackerTest, NeverReusedEntryIsFullyUnAce)
{
    AvfLedger ledger(1);
    Tlb tlb({"dtlb", 8, 2, 8192, 200});
    TlbVulnTracker tracker(tlb, ledger, HwStruct::Dtlb);
    tlb.access(0x10000, 0, 10);
    tlb.flushAll(110);
    EXPECT_EQ(ledger.aceBitCycles(HwStruct::Dtlb), 0u);
    EXPECT_EQ(ledger.unAceBitCycles(HwStruct::Dtlb),
              bits::tlbEntry * 100u);
}

TEST(TlbTrackerTest, RegistersStructureBits)
{
    AvfLedger ledger(1);
    Tlb tlb({"dtlb", 8, 2, 8192, 200});
    TlbVulnTracker tracker(tlb, ledger, HwStruct::Dtlb);
    EXPECT_EQ(ledger.structureBits(HwStruct::Dtlb), 8u * bits::tlbEntry);
}

/**
 * The cache tracker as one record per unit and one ledger interval per
 * unit: the reference the packed tracker must match tally for tally and
 * byte for byte on the checkpoint wire.
 */
class ReferenceTracker : public CacheObserver
{
  public:
    ReferenceTracker(Cache &cache, AvfLedger &ledger, HwStruct data_struct,
                     HwStruct tag_struct, bool per_byte)
        : ledger_(ledger), dataStruct_(data_struct), tagStruct_(tag_struct),
          lineBytes_(cache.config().lineBytes),
          granBytes_(per_byte ? 1 : lineBytes_),
          unitsPerLine_(lineBytes_ / granBytes_)
    {
        lines_.resize(cache.numLines());
        units_.resize(static_cast<std::size_t>(cache.numLines()) *
                      unitsPerLine_);
        std::uint32_t offset_bits = std::countr_zero(lineBytes_);
        std::uint32_t index_bits = std::countr_zero(cache.numSets());
        tagBits_ = 48 - offset_bits - index_bits + 4;
        ledger_.setStructureBits(dataStruct_, std::uint64_t{cache.numLines()} *
                                                  lineBytes_ * 8);
        ledger_.setStructureBits(tagStruct_,
                                 std::uint64_t{cache.numLines()} * tagBits_);
        cache.setObserver(this);
    }

    void
    onFill(std::uint32_t slot, Addr, ThreadId tid, Cycle now) override
    {
        lines_.at(slot) = {true, tid, now, now, false};
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = 0; b < unitsPerLine_; ++b)
            units_[base + b] = {now, false};
    }

    void
    onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
             bool is_write, ThreadId, Cycle now) override
    {
        auto &line = lines_.at(slot);
        line.lastAccess = now;
        if (is_write)
            line.dirty = true;
        std::uint32_t off = static_cast<std::uint32_t>(addr) &
                            (lineBytes_ - 1);
        std::uint32_t first = off / granBytes_;
        std::uint32_t last = (off + size + granBytes_ - 1) / granBytes_;
        if (last > unitsPerLine_)
            last = unitsPerLine_;
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = first; b < last; ++b) {
            auto &unit = units_[base + b];
            ledger_.addInterval(dataStruct_, line.tid, granBytes_ * 8,
                                unit.since, now, !is_write);
            unit.since = now;
            if (is_write)
                unit.dirty = true;
        }
    }

    void
    onEvict(std::uint32_t slot, bool dirty, Cycle now) override
    {
        auto &line = lines_.at(slot);
        auto base = static_cast<std::size_t>(slot) * unitsPerLine_;
        for (std::uint32_t b = 0; b < unitsPerLine_; ++b) {
            auto &unit = units_[base + b];
            ledger_.addInterval(dataStruct_, line.tid, granBytes_ * 8,
                                unit.since, now, unit.dirty);
        }
        if (dirty || line.dirty) {
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.fillCycle, now, true);
        } else {
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.fillCycle, line.lastAccess, true);
            ledger_.addInterval(tagStruct_, line.tid, tagBits_,
                                line.lastAccess, now, false);
        }
        line.valid = false;
    }

    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(lines_);
        ar(units_);
    }

  private:
    struct UnitState
    {
        Cycle since = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(since);
            ar(dirty);
        }
    };

    struct LineState
    {
        bool valid = false;
        ThreadId tid = 0;
        Cycle fillCycle = 0;
        Cycle lastAccess = 0;
        bool dirty = false;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tid);
            ar(fillCycle);
            ar(lastAccess);
            ar(dirty);
        }
    };

    AvfLedger &ledger_;
    HwStruct dataStruct_;
    HwStruct tagStruct_;
    std::uint32_t lineBytes_;
    std::uint32_t granBytes_;
    std::uint32_t unitsPerLine_;
    std::uint32_t tagBits_ = 0;
    std::vector<LineState> lines_;
    std::vector<UnitState> units_;
};

constexpr unsigned kDiffThreads = 3;
const CacheConfig kDiffCache{"dl1", 1024, 2, 64, 1, 2};

template <class T>
std::string
wireBytes(T &obj)
{
    Serializer ser;
    ser(obj);
    return ser.take();
}

template <class T>
void
loadWire(T &obj, const std::string &bytes)
{
    Deserializer des(bytes);
    des(obj);
    ASSERT_TRUE(des.exhausted());
}

/** One cache, its tracker and the ledger the tracker reports to. */
template <class Tracker>
struct TrackedCache
{
    TrackedCache(bool per_byte, const ProtectionConfig &protection)
        : ledger(kDiffThreads), cache(kDiffCache),
          tracker(cache, ledger, HwStruct::Dl1Data, HwStruct::Dl1Tag,
                  per_byte)
    {
        ledger.setProtection(protection);
    }

    AvfLedger ledger;
    Cache cache;
    Tracker tracker;
};

void
expectSameTallies(AvfLedger &got, AvfLedger &want)
{
    for (HwStruct s : {HwStruct::Dl1Data, HwStruct::Dl1Tag}) {
        for (ThreadId t = 0; t < kDiffThreads; ++t) {
            ASSERT_EQ(got.aceBitCycles(s, t), want.aceBitCycles(s, t));
            ASSERT_EQ(got.coveredAceBitCycles(s, t),
                      want.coveredAceBitCycles(s, t));
            ASSERT_EQ(got.residualAceBitCycles(s, t),
                      want.residualAceBitCycles(s, t));
        }
        ASSERT_EQ(got.unAceBitCycles(s), want.unAceBitCycles(s));
    }
    // The ledger's wire form carries every per-thread tally, un-ACE too.
    ASSERT_EQ(wireBytes(got), wireBytes(want));
}

/**
 * Drive the packed tracker and the reference through one seeded op
 * sequence on twin caches, comparing both ledgers and both wire forms
 * after every step.
 */
void
runDifferential(bool per_byte, const ProtectionConfig &protection,
                std::uint64_t seed)
{
    TrackedCache<CacheVulnTracker> got(per_byte, protection);
    TrackedCache<ReferenceTracker> want(per_byte, protection);
    Rng rng(seed);
    Cycle now = 0;
    for (int step = 0; step < 1500; ++step) {
        // Mostly short gaps; now and then one past the 64-cycle scrub.
        now += rng.bernoulli(0.05) ? rng.uniform(400) : rng.uniform(12);
        // 32 lines compete for the 16 slots of 8 two-way sets, and most
        // accesses land in a line's first 16 bytes, so bytes are read
        // and rewritten within one residency; the rest reach the line's
        // end, where an access is clipped.
        Addr addr = rng.uniform(32) * 64 +
                    (rng.bernoulli(0.7) ? rng.uniform(16) : rng.uniform(64));
        auto tid = static_cast<ThreadId>(rng.uniform(kDiffThreads));
        std::uint64_t op = rng.uniform(100);
        if (op < 60) {
            static constexpr std::uint32_t sizes[] = {1, 2, 4, 8};
            std::uint32_t size = sizes[rng.uniform(4)];
            bool is_write = op >= 35;
            bool hit = got.cache.access(addr, size, is_write, tid, now);
            ASSERT_EQ(want.cache.access(addr, size, is_write, tid, now),
                      hit);
        } else if (op < 88) {
            got.cache.fill(addr, tid, now);
            want.cache.fill(addr, tid, now);
        } else if (op < 92) {
            got.cache.flushAll(now);
            want.cache.flushAll(now);
        } else {
            // Round trip into freshly built trackers: only the load path
            // can bring the open intervals back.
            TrackedCache<CacheVulnTracker> got_back(per_byte, protection);
            TrackedCache<ReferenceTracker> want_back(per_byte, protection);
            const std::string saved = wireBytes(got.tracker);
            const std::string ref_saved = wireBytes(want.tracker);
            ASSERT_NO_FATAL_FAILURE(loadWire(got_back.tracker, saved));
            ASSERT_NO_FATAL_FAILURE(loadWire(want_back.tracker, ref_saved));
            ASSERT_EQ(wireBytes(got_back.tracker), saved);
            ASSERT_EQ(wireBytes(want_back.tracker), ref_saved);
        }
        SCOPED_TRACE("step " + std::to_string(step));
        ASSERT_NO_FATAL_FAILURE(expectSameTallies(got.ledger, want.ledger));
        ASSERT_EQ(wireBytes(got.tracker), wireBytes(want.tracker));
    }
}

ProtectionConfig
dl1Protection(ProtScheme scheme, Cycle scrub = 10000)
{
    ProtectionConfig p;
    p.assign(HwStruct::Dl1Data, scheme);
    p.assign(HwStruct::Dl1Tag, scheme);
    p.scrubInterval = scrub;
    return p;
}

TEST(CacheTrackerDifferential, MatchesPerUnitReference)
{
    // A scrub period of 0 means "no scrubbing" to the coverage model, but
    // ProtectionConfig refuses it for secded+scrub; a period longer than
    // any residency here (the 2^30 limit) is that case in effect.
    const ProtectionConfig protections[] = {
        ProtectionConfig{},
        dl1Protection(ProtScheme::Parity),
        dl1Protection(ProtScheme::Secded),
        dl1Protection(ProtScheme::SecdedScrub, 1),
        dl1Protection(ProtScheme::SecdedScrub, 64),
        dl1Protection(ProtScheme::SecdedScrub, Cycle{1} << 30)};
    for (bool per_byte : {true, false}) {
        for (const auto &protection : protections) {
            for (std::uint64_t seed : {1, 2, 3}) {
                SCOPED_TRACE((per_byte ? "per byte, " : "per line, ") +
                             protection.str() + ", seed " +
                             std::to_string(seed));
                runDifferential(per_byte, protection, seed);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(CacheTrackerDifferential, RejectsSinceBeyondPackedRange)
{
    TrackedCache<CacheVulnTracker> side(true, ProtectionConfig{});
    side.cache.fill(0x40, 0, 7);
    std::string bytes = wireBytes(side.tracker);
    // The units close the payload at 9 bytes each (since, then dirty);
    // set bit 63 of the first unit's since.
    std::size_t units = kDiffCache.sizeBytes;
    std::size_t first_since = bytes.size() - 9 * units;
    bytes[first_since + 7] = static_cast<char>(0x80);
    Deserializer des(bytes);
    EXPECT_THROW(des(side.tracker), CheckpointError);
}

TEST(CacheTrackerDifferential, RejectsUnitCountOfAnotherGeometry)
{
    TrackedCache<CacheVulnTracker> per_line(false, ProtectionConfig{});
    TrackedCache<CacheVulnTracker> per_byte(true, ProtectionConfig{});
    std::string bytes = wireBytes(per_line.tracker);
    Deserializer des(bytes);
    EXPECT_THROW(des(per_byte.tracker), CheckpointError);
}

} // namespace
} // namespace smtavf
