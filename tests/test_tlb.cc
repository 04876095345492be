/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/tlb.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

class RecordingTlbObserver : public TlbObserver
{
  public:
    struct Event
    {
        char kind; // 'F', 'H', 'E'
        std::uint32_t slot;
        Cycle cycle;
    };

    void
    onFill(std::uint32_t slot, ThreadId, Cycle now) override
    {
        events.push_back({'F', slot, now});
    }

    void
    onHit(std::uint32_t slot, ThreadId, Cycle now) override
    {
        events.push_back({'H', slot, now});
    }

    void
    onEvict(std::uint32_t slot, Cycle now) override
    {
        events.push_back({'E', slot, now});
    }

    std::vector<Event> events;
};

TlbConfig
smallTlb()
{
    return {"test", 8, 2, 8192, 200}; // 4 sets x 2 ways
}

TEST(TlbTest, RejectsBadGeometry)
{
    ThrowGuard guard;
    EXPECT_THROW(Tlb({"x", 0, 2, 8192, 200}), SimError);
    EXPECT_THROW(Tlb({"x", 9, 2, 8192, 200}), SimError);
    EXPECT_THROW(Tlb({"x", 8, 2, 1000, 200}), SimError); // page !pow2
    EXPECT_THROW(Tlb({"x", 8, 2, 0, 200}), SimError);    // no page size
}

TEST(TlbTest, MissFillsAndPaysPenalty)
{
    Tlb tlb(smallTlb());
    EXPECT_EQ(tlb.access(0x10000, 0, 1), 200u);
    EXPECT_EQ(tlb.access(0x10004, 0, 2), 0u); // same page now hits
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(TlbTest, DifferentPagesMissSeparately)
{
    Tlb tlb(smallTlb());
    tlb.access(0x10000, 0, 1);
    EXPECT_EQ(tlb.access(0x10000 + 8192, 0, 2), 200u);
}

TEST(TlbTest, EntriesAreTaggedByThread)
{
    Tlb tlb(smallTlb());
    tlb.access(0x10000, 0, 1);
    // Same virtual page, different thread: separate address space.
    EXPECT_EQ(tlb.access(0x10000, 1, 2), 200u);
}

TEST(TlbTest, LruEvictsWithinSet)
{
    Tlb tlb(smallTlb()); // 4 sets, 2 ways; set = vpn % 4
    Addr page = 8192;
    tlb.access(0 * 4 * page, 0, 1);  // vpn 0 -> set 0
    tlb.access(1 * 4 * page, 0, 2);  // vpn 4 -> set 0
    tlb.access(0 * 4 * page, 0, 3);  // refresh first
    tlb.access(2 * 4 * page, 0, 4);  // vpn 8 -> set 0, evicts vpn 4
    EXPECT_EQ(tlb.access(0, 0, 5), 0u);
    EXPECT_EQ(tlb.access(4 * page, 0, 6), 200u);
}

TEST(TlbTest, PrefillAvoidsFirstMissWithoutStats)
{
    Tlb tlb(smallTlb());
    tlb.prefill(0x10000, 0);
    EXPECT_EQ(tlb.misses(), 0u);
    EXPECT_EQ(tlb.access(0x10000, 0, 1), 0u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(TlbTest, PrefillIsIdempotent)
{
    Tlb tlb(smallTlb());
    RecordingTlbObserver obs;
    tlb.setObserver(&obs);
    tlb.prefill(0x10000, 0);
    tlb.prefill(0x10000, 0);
    EXPECT_EQ(obs.events.size(), 1u);
}

TEST(TlbTest, ObserverLifecycle)
{
    Tlb tlb(smallTlb());
    RecordingTlbObserver obs;
    tlb.setObserver(&obs);
    tlb.access(0x10000, 0, 1);
    tlb.access(0x10000, 0, 5);
    tlb.flushAll(9);
    ASSERT_EQ(obs.events.size(), 3u);
    EXPECT_EQ(obs.events[0].kind, 'F');
    EXPECT_EQ(obs.events[1].kind, 'H');
    EXPECT_EQ(obs.events[1].cycle, 5u);
    EXPECT_EQ(obs.events[2].kind, 'E');
}

TEST(TlbTest, EvictionNotifiesObserver)
{
    Tlb tlb(smallTlb());
    RecordingTlbObserver obs;
    tlb.setObserver(&obs);
    Addr page = 8192;
    tlb.access(0 * 4 * page, 0, 1);
    tlb.access(1 * 4 * page, 0, 2);
    tlb.access(2 * 4 * page, 0, 3); // evicts
    int evicts = 0;
    for (const auto &e : obs.events)
        evicts += e.kind == 'E';
    EXPECT_EQ(evicts, 1);
}

} // namespace
} // namespace smtavf
