/**
 * @file
 * Quiet-cycle skipping. Simulator's tick loops jump the clock over the
 * cycles after a tick that changed nothing but the clock and the two
 * round-robin pointers (SmtCore::quietUntil, SmtCore::skipTo), while
 * SmtCore::tick() still advances exactly one cycle. These tests hold
 * Simulator::run to the per-cycle sequence perfbench's stepped replay
 * uses (construct, tick until the budget commits, finalizeAvf,
 * hierarchy finalize, ledger finalize, AvfReport::fromLedger): the same
 * cycles, the same commits per thread and every AVF figure bit for bit.
 * Warmup cases also run the boundary's drain cycle by cycle. Each case
 * runs with the invariant checker off, where the long jumps happen, and
 * every 16 cycles, which caps each jump at 16 cycles.
 *
 * Further tests pin the clamps: the cancel poll, the invariant checker
 * and the drain bound still act on their own cycles (the watchdog's is
 * Livelock.WatchdogFiresOnItsExactCycle), and a cycle window crossed by
 * a jump closes as it would have.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "avf/interval_series.hh"
#include "base/logging.hh"
#include "core/fu_pool.hh"
#include "sim/campaign.hh"
#include "sim/errors.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

constexpr std::uint64_t kBudget = 12000;
constexpr std::uint64_t kWarmup = 20000;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** What both paths report, compared field by field. */
struct Outcome
{
    Cycle cycles = 0;
    std::vector<std::uint64_t> committed; ///< per thread, in the window
    AvfReport avf;
    std::vector<AvfIntervalSeries::Row> windows;
};

void
expectSameOutcome(const Outcome &want, const Outcome &got)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.committed, want.committed);
    ASSERT_EQ(got.avf.numThreads(), want.avf.numThreads());
    EXPECT_EQ(got.avf.cycles(), want.avf.cycles());
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        const auto s = static_cast<HwStruct>(i);
        EXPECT_TRUE(sameBits(got.avf.avf(s), want.avf.avf(s)))
            << hwStructName(s);
        EXPECT_TRUE(sameBits(got.avf.residualAvf(s), want.avf.residualAvf(s)))
            << hwStructName(s);
        EXPECT_TRUE(sameBits(got.avf.occupancy(s), want.avf.occupancy(s)))
            << hwStructName(s);
        for (unsigned t = 0; t < want.avf.numThreads(); ++t) {
            const auto tid = static_cast<ThreadId>(t);
            EXPECT_TRUE(sameBits(got.avf.threadAvf(s, tid),
                                 want.avf.threadAvf(s, tid)))
                << hwStructName(s) << " thread " << t;
        }
    }
    ASSERT_EQ(got.windows.size(), want.windows.size());
    for (std::size_t w = 0; w < want.windows.size(); ++w) {
        const auto &a = want.windows[w];
        const auto &b = got.windows[w];
        EXPECT_EQ(b.startInstr, a.startInstr) << "window " << w;
        EXPECT_EQ(b.endInstr, a.endInstr) << "window " << w;
        EXPECT_EQ(b.startCycle, a.startCycle) << "window " << w;
        EXPECT_EQ(b.endCycle, a.endCycle) << "window " << w;
        EXPECT_EQ(b.aceDelta, a.aceDelta) << "window " << w;
        EXPECT_EQ(b.residualDelta, a.residualDelta) << "window " << w;
    }
}

/** The measured window's per-thread commits, from the core. */
std::vector<std::uint64_t>
threadCommits(SmtCore &core, const std::vector<std::uint64_t> &base)
{
    std::vector<std::uint64_t> out;
    for (unsigned t = 0; t < base.size(); ++t)
        out.push_back(core.committed(static_cast<ThreadId>(t)) - base[t]);
    return out;
}

/**
 * The per-cycle reference: perfbench's steppedProbe sequence, plus a
 * cycle sampler ticked every cycle when @p cfg asks for one (in
 * Simulator::run's finalize order). A @p warmup first runs
 * Simulator::run's warmup boundary cycle by cycle: commit, drain with
 * fetch gated, resolve deadness, zero the tallies.
 */
Outcome
stepped(const MachineConfig &cfg, const WorkloadMix &mix,
        const Checkpoint *ck, std::uint64_t warmup)
{
    Simulator sim(cfg, mix);
    if (ck)
        sim.restore(*ck);
    SmtCore &core = sim.core();
    if (warmup > 0) {
        while (core.totalCommitted() < warmup)
            core.tick();
        core.setFetchEnabled(false);
        while (!(core.pipelineEmpty() &&
                 sim.hierarchy().outstandingMisses() == 0))
            core.tick();
        core.setFetchEnabled(true);
        core.boundaryResolveDeadness();
        sim.ledger().resetTallies(core.now());
    }
    std::vector<std::uint64_t> base;
    for (unsigned t = 0; t < cfg.contexts; ++t)
        base.push_back(core.committed(static_cast<ThreadId>(t)));
    std::unique_ptr<AvfIntervalSeries> series;
    if (cfg.avfSampleCycles > 0) {
        series = std::make_unique<AvfIntervalSeries>(
            sim.ledger(), AvfIntervalSeries::Unit::Cycles,
            cfg.avfSampleCycles);
        series->arm(core.totalCommitted(), core.now());
    }

    const std::uint64_t target = core.totalCommitted() + kBudget;
    while (core.totalCommitted() < target) {
        core.tick();
        if (series)
            series->tick(core.totalCommitted(), core.now());
    }
    const Cycle end = core.now();
    core.finalizeAvf();
    sim.hierarchy().finalize(end);
    if (series)
        series->finish(core.totalCommitted(), end);
    sim.ledger().finalize(end);

    Outcome o;
    o.cycles = end - sim.ledger().baseCycle();
    o.committed = threadCommits(core, base);
    o.avf = AvfReport::fromLedger(sim.ledger());
    if (series)
        o.windows = series->data();
    return o;
}

/** Simulator::run on the same inputs; @p skipped gets the jumped cycles. */
Outcome
skipping(const MachineConfig &cfg, const WorkloadMix &mix,
         const Checkpoint *ck, std::uint64_t warmup,
         std::uint64_t *skipped = nullptr)
{
    Simulator sim(cfg, mix);
    if (ck)
        sim.restore(*ck);
    RunControls rc;
    rc.warmup = warmup;
    SimResult r = sim.run(kBudget, rc);
    if (skipped)
        *skipped = sim.core().skippedCycles();

    Outcome o;
    o.cycles = r.cycles;
    for (const auto &t : r.threads)
        o.committed.push_back(t.committed);
    o.avf = r.avf;
    if (r.timeline)
        o.windows = r.timeline->data();
    return o;
}

/** Where a case's measured window starts. */
enum class Start
{
    Cold,     ///< at construction
    Warmup,   ///< after a kWarmup-instruction warmup boundary
    Restored, ///< from captureWarmupCheckpoint(kWarmup)
};

/**
 * One differential case: a mix, a policy, a configuration tweak, where
 * the measured window starts and the invariant checker's period.
 */
struct Case
{
    std::string name;
    WorkloadMix mix;
    FetchPolicyKind policy;
    std::function<void(MachineConfig &)> tweak;
    Start start = Start::Cold;
    Cycle invariants = 0;
};

/** CTest names each case after its printed value. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

WorkloadMix
soloMcf()
{
    return WorkloadMix{"1ctx-mcf", 1, MixType::Mem, 'A', {"mcf"}};
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    auto none = [](MachineConfig &) {};
    const FetchPolicyKind icount_flush[] = {FetchPolicyKind::Icount,
                                            FetchPolicyKind::Flush};
    for (const char *mix : {"4ctx-mem-A", "4ctx-mix-A"}) {
        for (FetchPolicyKind p : allFetchPolicies()) {
            std::string name = std::string(mix) + "_" + fetchPolicyName(p);
            for (char &c : name)
                if (c == '-')
                    c = '_';
            out.push_back({name, findMix(mix), p, none});
        }
    }
    for (FetchPolicyKind p : icount_flush) {
        const std::string pn = fetchPolicyName(p);
        out.push_back({"1ctx_mcf_" + pn, soloMcf(), p, none});
        out.push_back({"2ctx_mem_A_" + pn, findMix("2ctx-mem-A"), p, none});
        out.push_back({"8ctx_mem_A_" + pn, findMix("8ctx-mem-A"), p, none});
    }
    out.push_back({"IqPartitioned", findMix("4ctx-mem-A"),
                   FetchPolicyKind::Icount,
                   [](MachineConfig &c) { c.iqPartitioned = true; }});
    out.push_back({"NoWrongPathModel", findMix("4ctx-mix-A"),
                   FetchPolicyKind::Icount,
                   [](MachineConfig &c) { c.avf.wrongPathModel = false; }});
    out.push_back({"TrackL2Avf", findMix("4ctx-mem-A"),
                   FetchPolicyKind::Icount,
                   [](MachineConfig &c) { c.avf.trackL2Avf = true; }});
    out.push_back({"Dl1SecdedScrub64", findMix("4ctx-mem-A"),
                   FetchPolicyKind::Flush, [](MachineConfig &c) {
                       c.protection.assignScrub(HwStruct::Dl1Data, 64);
                       c.protection.assignScrub(HwStruct::Dl1Tag, 64);
                   }});
    // Memory slower than the completion wheel's 4096-cycle horizon
    // parks L2-missing loads' completions in the overflow map.
    out.push_back({"OverflowEvents", findMix("4ctx-mix-A"),
                   FetchPolicyKind::Icount,
                   [](MachineConfig &c) { c.mem.memLatency = 5000; }});
    out.push_back({"CycleWindows100", findMix("4ctx-mem-A"),
                   FetchPolicyKind::Flush,
                   [](MachineConfig &c) { c.avfSampleCycles = 100; }});
    for (FetchPolicyKind p : icount_flush) {
        const std::string pn = fetchPolicyName(p);
        out.push_back({"Warmup" + pn, findMix("4ctx-mem-A"), p, none,
                       Start::Warmup});
        out.push_back({"Restored" + pn, findMix("4ctx-mem-A"), p, none,
                       Start::Restored});
    }
    // Uncapped jumps, and jumps capped at 16 cycles.
    std::vector<Case> both;
    for (Cycle invariants : {Cycle{0}, Cycle{16}}) {
        for (Case c : out) {
            c.name += "_inv" + std::to_string(invariants);
            c.invariants = invariants;
            both.push_back(std::move(c));
        }
    }
    return both;
}

class QuietCycles : public ::testing::TestWithParam<Case>
{
};

TEST_P(QuietCycles, RunEqualsPerCycleTicking)
{
    const Case &c = GetParam();
    auto cfg = table1Config(c.mix.contexts);
    cfg.fetchPolicy = c.policy;
    c.tweak(cfg);
    cfg.invariantCheckCycles = c.invariants;

    Checkpoint ck;
    if (c.start == Start::Restored) {
        Simulator warm(cfg, c.mix);
        ck = warm.captureWarmupCheckpoint(kWarmup);
    }
    const Checkpoint *from = c.start == Start::Restored ? &ck : nullptr;
    const std::uint64_t warmup = c.start == Start::Warmup ? kWarmup : 0;
    expectSameOutcome(stepped(cfg, c.mix, from, warmup),
                      skipping(cfg, c.mix, from, warmup));
}

INSTANTIATE_TEST_SUITE_P(Differential, QuietCycles,
                         ::testing::ValuesIn(cases()));

/** 4 contexts under @p policy, invariant checker off: the long jumps. */
MachineConfig
uncapped(FetchPolicyKind policy = FetchPolicyKind::Icount)
{
    auto cfg = table1Config(4);
    cfg.fetchPolicy = policy;
    cfg.invariantCheckCycles = 0;
    return cfg;
}

TEST(QuietCycles, MostMemoryBoundCyclesAreSkipped)
{
    std::uint64_t skipped = 0;
    Outcome o = skipping(uncapped(), findMix("4ctx-mem-A"), nullptr, 0,
                         &skipped);
    EXPECT_GT(skipped * 2, o.cycles)
        << skipped << " of " << o.cycles << " cycles skipped";
}

TEST(QuietCycles, PratNeverSkips)
{
    // PRAT's fetchOrder refreshes epochs and tallies throttled cycles in
    // every call, so no tick under it is quiet.
    std::uint64_t skipped = 1;
    skipping(uncapped(FetchPolicyKind::PRat), findMix("4ctx-mem-A"),
             nullptr, 0, &skipped);
    EXPECT_EQ(skipped, 0u);
}

/**
 * The skip relies on this: a unit stays busy past the next cycle only
 * when its occupancy equals the operation's latency, so it frees on the
 * cycle its occupant's completion (or that occupant's squashed bucket)
 * already wakes the loop.
 */
TEST(QuietCycles, FunctionUnitsFreeOnTheirOccupantsCompletion)
{
    for (std::size_t i = 0; i < numOpClasses; ++i) {
        const auto op = static_cast<OpClass>(i);
        if (fuTypeFor(op) == FuType::None)
            continue;
        EXPECT_TRUE(fuOccupancy(op) == 1 ||
                    fuOccupancy(op) == execLatency(op))
            << opClassName(op);
    }
}

TEST(QuietCycles, HierarchyReportsItsNextFill)
{
    MemHierarchy h{MemConfig{}};
    EXPECT_EQ(h.nextFill(), maxCycle);
    EXPECT_FALSE(h.tick(1));

    MemOutcome out = h.load(0, 0x40000, 8, 1);
    ASSERT_TRUE(out.l1Miss);
    ASSERT_TRUE(out.l2Miss);
    // The L2 line lands first; the DL1 fill it feeds lands with it.
    EXPECT_EQ(h.nextFill(), 1 + h.config().memLatency);
    EXPECT_FALSE(h.tick(h.nextFill() - 1));
    EXPECT_TRUE(h.tick(h.nextFill()));
    EXPECT_EQ(h.outstandingMisses(), 0u);
    EXPECT_EQ(h.nextFill(), maxCycle);
}

TEST(QuietCycles, CancelPollKeepsItsCycle)
{
    // Each poll period must still see the flag on its first multiple,
    // however long the quiet stretch that spans it.
    std::atomic<bool> flag{true};
    for (Cycle period : {97, 331, 733, 1201}) {
        auto cfg = uncapped();
        cfg.cancel = &flag;
        cfg.cancelCheckCycles = period;
        Simulator sim(cfg, findMix("4ctx-mem-A"));
        try {
            sim.run(1000000);
            ADD_FAILURE() << "expected CancelledError, period " << period;
        } catch (const CancelledError &err) {
            EXPECT_EQ(err.cycle, period);
        }
    }
}

TEST(QuietCycles, DrainBoundKeepsItsCycle)
{
    // A boundary drain waiting on 5000-cycle memory outlasts a 1000-cycle
    // bound. It must fail on the first cycle past the bound, where
    // draining cycle by cycle fails.
    auto cfg = uncapped();
    cfg.mem.memLatency = 5000;
    cfg.livelockCycles = 1000;
    constexpr std::uint64_t warmup = 200;

    Simulator ref(cfg, findMix("4ctx-mem-A"));
    SmtCore &core = ref.core();
    while (core.totalCommitted() < warmup)
        core.tick();
    const Cycle start = core.now();
    core.setFetchEnabled(false);
    while (!(core.pipelineEmpty() &&
             ref.hierarchy().outstandingMisses() == 0) &&
           core.now() - start <= cfg.livelockCycles)
        core.tick();
    ASSERT_EQ(core.now(), start + cfg.livelockCycles + 1)
        << "the drain must outlast its bound";

    Simulator sim(cfg, findMix("4ctx-mem-A"));
    RunControls rc;
    rc.warmup = warmup;
    const bool throws = loggingThrows();
    setLoggingThrows(true);
    EXPECT_THROW(sim.run(kBudget, rc), SimError);
    setLoggingThrows(throws);
    EXPECT_EQ(sim.core().now(), core.now());
}

TEST(QuietCycles, InvariantCheckKeepsItsCycle)
{
    // A corruption planted before the run is found by the first check,
    // on the first multiple of the period.
    for (Cycle period : {97, 331, 733, 1201}) {
        auto cfg = uncapped();
        cfg.invariantCheckCycles = period;
        Simulator sim(cfg, findMix("4ctx-mem-A"));
        auto &rf = sim.core().regfileRef();
        rf.debugCorruptFreeList(false, 0, rf.freeList(false)[1]);
        try {
            sim.run(1000000);
            ADD_FAILURE() << "expected InvariantError, period " << period;
        } catch (const InvariantError &err) {
            EXPECT_EQ(err.cycle, period);
        }
    }
}

} // namespace
} // namespace smtavf
