/**
 * @file
 * Steady-state allocation audit: after a warm-up period, the simulator's
 * tick loop must perform no global heap allocation. The instruction
 * slots, the completion wheel, the flat IQ, the ring-buffered queues and
 * the reused scratch vectors exist precisely so the hot loop recycles
 * memory instead of going to the allocator; this test pins that property
 * so a regression (a stray std::map node, a vector that lost its
 * reserve) fails loudly instead of silently costing throughput.
 *
 * The hook below replaces the global operator new/delete for the whole
 * test binary with counting forwarders. Every other test keeps working —
 * the hook only counts — but this file can snapshot the counter around a
 * tick window and assert it never moved.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

/** Global allocations observed since process start (counting hook). */
static std::atomic<std::uint64_t> g_allocCount{0};

static void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p;
    if (align > alignof(std::max_align_t)) {
        // aligned_alloc demands a size that is a multiple of the alignment.
        std::size_t rounded = (n + align - 1) / align * align;
        p = std::aligned_alloc(align, rounded);
    } else {
        p = std::malloc(n);
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace smtavf
{
namespace
{

/**
 * Campaign setup/teardown allocation budgets: the measured counts in
 * docs/PERFORMANCE.md plus headroom. Allocation *counts*, not bytes —
 * the campaign cost that scales with run count is allocator round
 * trips, not footprint. Setup dropped from 138 to 7 when construction
 * moved onto the per-simulator arena (base/arena.hh), and to 3 once the
 * arena's slabs became cached private mappings: what remains is the
 * MSHR slab pool and a couple of profile-string copies. The ≤10
 * ceiling is an acceptance criterion, not a headroom number — a new
 * setup-time container that misses the arena should fail this gate.
 */
constexpr std::uint64_t kSetupAllocBudget = 10;    // measured 3
constexpr std::uint64_t kResetAllocBudget = 0;     // reset is free, always
constexpr std::uint64_t kCaptureAllocBudget = 64;  // measured 35
constexpr std::uint64_t kRestoreAllocBudget = 8;   // measured 3
constexpr std::uint64_t kTeardownAllocBudget = 4;  // measured 0

/** Ticks before measuring: pools, rings and scratch buffers warm up. */
constexpr int kWarmupTicks = 20000;
/** Audited window: the acceptance criterion's 10k-cycle spot check. */
constexpr int kWindowTicks = 10000;

/** Warm @p mix under @p policy, then count a window's allocations. */
void
expectSteadyTickLoopAllocationFree(const char *mix, FetchPolicyKind policy)
{
    auto cfg = table1Config(4);
    cfg.fetchPolicy = policy;
    cfg.seed = 7;
    Simulator sim(cfg, findMix(mix));
    auto &core = sim.core();

    for (int i = 0; i < kWarmupTicks; ++i)
        core.tick();

    std::uint64_t before = g_allocCount.load(std::memory_order_relaxed);
    for (int i = 0; i < kWindowTicks; ++i)
        core.tick();
    std::uint64_t after = g_allocCount.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << (after - before) << " global allocations in a " << kWindowTicks
        << "-cycle steady-state window of " << mix << " under "
        << fetchPolicyName(policy) << " (warmup " << kWarmupTicks << ")";
}

/** The mix and the fetch policy of one audited window. */
struct AllocCase
{
    const char *mix;
    FetchPolicyKind policy;
};

/**
 * CTest names each case after its printed value. Printing the policy's
 * number alone keeps the names the first two cases have always had.
 */
void
PrintTo(const AllocCase &c, std::ostream *os)
{
    *os << static_cast<int>(c.policy);
}

std::vector<AllocCase>
allocCases(const char *mix, const std::vector<FetchPolicyKind> &policies)
{
    std::vector<AllocCase> out;
    for (FetchPolicyKind p : policies)
        out.push_back({mix, p});
    return out;
}

class AllocSteadyState : public ::testing::TestWithParam<AllocCase>
{
};

TEST_P(AllocSteadyState, TickLoopIsAllocationFreeAfterWarmup)
{
    expectSteadyTickLoopAllocationFree(GetParam().mix, GetParam().policy);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllocSteadyState,
    ::testing::ValuesIn(allocCases(
        "4ctx-mix-A",
        {FetchPolicyKind::Icount, FetchPolicyKind::RoundRobin})));

/** Every policy on the memory-bound mix. */
INSTANTIATE_TEST_SUITE_P(
    MemoryBound, AllocSteadyState,
    ::testing::ValuesIn(allocCases("4ctx-mem-A", allFetchPolicies())));

/**
 * The other policies on the mixed mix, except STALL: its one allocation
 * in the window is a rehash of the DL1 MSHR map, called from accessL1
 * (ROADMAP's deterministic-MSHR item, which stays open).
 */
INSTANTIATE_TEST_SUITE_P(
    Mixed, AllocSteadyState,
    ::testing::ValuesIn(allocCases(
        "4ctx-mix-A",
        {FetchPolicyKind::Flush, FetchPolicyKind::Dg, FetchPolicyKind::Pdg,
         FetchPolicyKind::DWarn, FetchPolicyKind::PStall,
         FetchPolicyKind::Rat, FetchPolicyKind::PRat})));

/**
 * The memory-bound, squash-heavy path: a full IQ waiting on L2 misses
 * drives the wakeup scratch, the IQ compaction and the LSQ cursor every
 * cycle, and FLUSH squashes on top.
 */
TEST(AllocSteadyState, MemoryBoundFlushTickLoopIsAllocationFree)
{
    expectSteadyTickLoopAllocationFree("4ctx-mem-A", FetchPolicyKind::Flush);
}

/**
 * Heap profile of campaign setup/teardown (docs/PERFORMANCE.md records
 * the measured counts): campaigns construct and destroy one Simulator
 * per run, and shared-warmup campaigns add a checkpoint capture and a
 * restore per run on top. None of these are in the tick loop, but at
 * thousands of runs per sweep their allocator traffic is the dominant
 * non-simulation cost, so this audit pins each phase to a budget with
 * headroom. If one of these fails after a change, re-measure, update
 * PERFORMANCE.md, and only then raise the ceiling.
 */
TEST(AllocProfile, CampaignSetupCaptureRestoreTeardownBudgets)
{
    auto cfg = table1Config(4);
    cfg.seed = 7;
    // The suite-wide SMTAVF_INVARIANTS=16 checker allocates scratch as
    // it walks the pipeline; this audit prices the *production* path.
    cfg.invariantCheckCycles = 0;
    const auto &mix = findMix("4ctx-mix-A");
    auto count = [] {
        return g_allocCount.load(std::memory_order_relaxed);
    };

    std::uint64_t setup, capture, restore, teardown;
    {
        std::uint64_t t0 = count();
        Simulator warm(cfg, mix);
        setup = count() - t0;

        t0 = count();
        Checkpoint ck = warm.captureWarmupCheckpoint(20000);
        capture = count() - t0;

        Simulator sim(cfg, mix);
        t0 = count();
        sim.restore(ck);
        restore = count() - t0;

        auto *dying = new Simulator(cfg, mix);
        t0 = count();
        delete dying;
        teardown = count() - t0;
    }

    RecordProperty("setup_allocs", static_cast<int>(setup));
    RecordProperty("capture_allocs", static_cast<int>(capture));
    RecordProperty("restore_allocs", static_cast<int>(restore));
    RecordProperty("teardown_allocs", static_cast<int>(teardown));
    std::printf("alloc-profile: setup=%llu capture=%llu restore=%llu "
                "teardown=%llu\n",
                static_cast<unsigned long long>(setup),
                static_cast<unsigned long long>(capture),
                static_cast<unsigned long long>(restore),
                static_cast<unsigned long long>(teardown));

    // Budgets = measured count (docs/PERFORMANCE.md) + headroom.
    EXPECT_LE(setup, kSetupAllocBudget);
    EXPECT_LE(capture, kCaptureAllocBudget);
    EXPECT_LE(restore, kRestoreAllocBudget);
    EXPECT_LE(teardown, kTeardownAllocBudget);
}

/**
 * The worker-reuse path: reset() must be exactly allocation-free, both
 * after a plain construction and after a completed run — every
 * container assign()s within its retained capacity, the stream
 * generators re-seed in place, and the config copy is flat. A single
 * allocation here would multiply across every reused campaign run, and
 * usually means a reset hook fell back to a rebuild-by-reallocation.
 */
TEST(AllocProfile, ResetIsAllocationFree)
{
    auto cfg = table1Config(4);
    cfg.seed = 7;
    cfg.invariantCheckCycles = 0;
    const auto &mix = findMix("4ctx-mix-A");
    auto count = [] {
        return g_allocCount.load(std::memory_order_relaxed);
    };

    Simulator sim(cfg, mix);
    ASSERT_TRUE(sim.canResetTo(cfg, mix));

    std::uint64_t t0 = count();
    sim.reset(cfg, mix);
    std::uint64_t fresh_reset = count() - t0;

    // A short run grows run-time scratch (completion wheel overflow,
    // notice buffers); the follow-up reset must still allocate nothing.
    sim.run(20000);
    auto cfg2 = cfg;
    cfg2.seed = 11; // a re-seed is part of the reuse contract
    t0 = count();
    sim.reset(cfg2, mix);
    std::uint64_t used_reset = count() - t0;

    std::printf("alloc-profile: reset(fresh)=%llu reset(after-run)=%llu\n",
                static_cast<unsigned long long>(fresh_reset),
                static_cast<unsigned long long>(used_reset));
    EXPECT_LE(fresh_reset, kResetAllocBudget);
    EXPECT_LE(used_reset, kResetAllocBudget);
}

/**
 * Arena slabs are private mappings kept in a per-thread cache, so the
 * next arena on the same thread (the next Simulator a campaign worker
 * builds) reuses the freed slab: no heap call and no fresh pages.
 */
TEST(AllocProfile, SecondArenaReusesFreedSlab)
{
    void *first;
    {
        Arena a;
        first = a.allocate(64, 64);
    }
    std::uint64_t t0 = g_allocCount.load(std::memory_order_relaxed);
    Arena b;
    void *second = b.allocate(64, 64);
    EXPECT_EQ(g_allocCount.load(std::memory_order_relaxed) - t0, 0u);
    EXPECT_EQ(second, first);
}

TEST(AllocSteadyState, HookCountsAllocations)
{
    std::uint64_t before = g_allocCount.load(std::memory_order_relaxed);
    auto *v = new std::vector<int>(1024);
    std::uint64_t after = g_allocCount.load(std::memory_order_relaxed);
    delete v;
    EXPECT_GE(after - before, 2u); // the vector object + its buffer
}

} // namespace
} // namespace smtavf
