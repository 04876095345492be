/**
 * @file
 * Unit tests for the cache content/placement model and its observer.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "mem/cache.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

/** Records observer events for verification. */
class RecordingObserver : public CacheObserver
{
  public:
    struct Event
    {
        char kind; // 'F', 'A', 'E'
        std::uint32_t slot;
        Addr addr;
        std::uint32_t size;
        bool write;
        bool dirty;
        Cycle cycle;
    };

    void
    onFill(std::uint32_t slot, Addr line_addr, ThreadId, Cycle now) override
    {
        events.push_back({'F', slot, line_addr, 0, false, false, now});
    }

    void
    onAccess(std::uint32_t slot, Addr addr, std::uint32_t size,
             bool is_write, ThreadId, Cycle now) override
    {
        events.push_back({'A', slot, addr, size, is_write, false, now});
    }

    void
    onEvict(std::uint32_t slot, bool dirty, Cycle now) override
    {
        events.push_back({'E', slot, 0, 0, false, dirty, now});
    }

    std::vector<Event> events;
};

CacheConfig
smallCache()
{
    return {"test", 1024, 2, 64, 1, 2}; // 8 sets x 2 ways x 64B
}

TEST(CacheTest, RejectsBadGeometry)
{
    ThrowGuard guard;
    EXPECT_THROW(Cache({"x", 0, 2, 64, 1, 1}), SimError);
    EXPECT_THROW(Cache({"x", 1024, 2, 60, 1, 1}), SimError); // line !pow2
    EXPECT_THROW(Cache({"x", 1024, 3, 64, 1, 1}), SimError); // 16 % 3 != 0
}

TEST(CacheTest, GeometryDerivation)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.numLines(), 16u);
    EXPECT_EQ(c.lineAddr(0x1234), 0x1200u);
}

TEST(CacheTest, MissThenFillThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, 4, false, 0, 1));
    EXPECT_EQ(c.misses(), 1u);
    c.fill(0x1000, 0, 2);
    EXPECT_TRUE(c.access(0x1000, 4, false, 0, 3));
    EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheTest, ProbeDoesNotMutate)
{
    Cache c(smallCache());
    c.fill(0x1000, 0, 1);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(CacheTest, FillIsIdempotent)
{
    Cache c(smallCache());
    RecordingObserver obs;
    c.setObserver(&obs);
    c.fill(0x1000, 0, 1);
    c.fill(0x1010, 0, 2); // same line
    EXPECT_EQ(obs.events.size(), 1u);
}

TEST(CacheTest, LruEvictsLeastRecentlyUsed)
{
    Cache c(smallCache()); // 2 ways
    // Three lines in the same set: stride = 8 sets * 64B.
    Addr a = 0x0000, b = 0x2000, d = 0x4000;
    c.fill(a, 0, 1);
    c.fill(b, 0, 2);
    c.access(a, 4, false, 0, 3); // a more recent than b
    c.fill(d, 0, 4);             // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(CacheTest, DirtyPropagatesToEviction)
{
    Cache c(smallCache());
    RecordingObserver obs;
    c.setObserver(&obs);
    c.fill(0x0000, 0, 1);
    c.access(0x0000, 4, true, 0, 2); // write -> dirty
    c.fill(0x2000, 0, 3);
    c.fill(0x4000, 0, 4); // evicts 0x0000 (LRU)
    bool found_dirty_evict = false;
    for (const auto &e : obs.events)
        if (e.kind == 'E')
            found_dirty_evict = e.dirty;
    EXPECT_TRUE(found_dirty_evict);
}

TEST(CacheTest, ObserverSeesFillAccessEvictSequence)
{
    Cache c(smallCache());
    RecordingObserver obs;
    c.setObserver(&obs);
    c.access(0x1000, 4, false, 0, 1); // miss: no event
    c.fill(0x1000, 2, 5);
    c.access(0x1004, 8, false, 2, 6);
    c.flushAll(10);
    ASSERT_EQ(obs.events.size(), 3u);
    EXPECT_EQ(obs.events[0].kind, 'F');
    EXPECT_EQ(obs.events[0].cycle, 5u);
    EXPECT_EQ(obs.events[1].kind, 'A');
    EXPECT_EQ(obs.events[1].addr, 0x1004u);
    EXPECT_EQ(obs.events[1].size, 8u);
    EXPECT_EQ(obs.events[2].kind, 'E');
    EXPECT_EQ(obs.events[2].cycle, 10u);
}

TEST(CacheTest, SlotIdsAreStable)
{
    Cache c(smallCache());
    RecordingObserver obs;
    c.setObserver(&obs);
    c.fill(0x1000, 0, 1);
    auto slot = obs.events.back().slot;
    c.access(0x1000, 4, false, 0, 2);
    EXPECT_EQ(obs.events.back().slot, slot);
}

TEST(CacheTest, FlushAllEmptiesTheCache)
{
    Cache c(smallCache());
    c.fill(0x1000, 0, 1);
    c.fill(0x2000, 0, 1);
    c.flushAll(5);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(CacheTest, MissRateComputation)
{
    Cache c(smallCache());
    c.access(0x1000, 4, false, 0, 1); // miss
    c.fill(0x1000, 0, 1);
    c.access(0x1000, 4, false, 0, 2); // hit
    c.access(0x1000, 4, false, 0, 3); // hit
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-12);
}

TEST(CacheTest, DistinctSetsDontConflict)
{
    Cache c(smallCache());
    for (int s = 0; s < 8; ++s)
        c.fill(0x1000 + s * 64, 0, 1);
    for (int s = 0; s < 8; ++s)
        EXPECT_TRUE(c.probe(0x1000 + s * 64));
}

TEST(CacheTest, LoadRejectsStampsBeyondThePackedRange)
{
    Cache c(smallCache());
    c.fill(0x1000, 0, 1);
    Serializer ser;
    c.serialize(ser);
    const std::string good = ser.take();

    // Wire layout: u64 line count, then per line valid (1), dirty (1),
    // tag (8) and stamp (8), then useClock_, hits and misses (8 each).
    const std::size_t first_stamp = 8 + 1 + 1 + 8;
    const std::size_t use_clock = 8 + 18 * std::size_t{c.numLines()};
    for (std::size_t at : {first_stamp, use_clock}) {
        std::string bad = good;
        bad[at + 7] = 0x40; // 2^62: one past the 62-bit stamp field
        Cache fresh(smallCache());
        Deserializer des(bad);
        EXPECT_THROW(fresh.serialize(des), CheckpointError) << "offset " << at;
    }

    Cache fresh(smallCache());
    Deserializer des(good);
    fresh.serialize(des);
    EXPECT_TRUE(des.exhausted());
    EXPECT_TRUE(fresh.probe(0x1000));
}

} // namespace
} // namespace smtavf
