/**
 * @file
 * Slot-recycling determinism: DynInstr records live in a fixed per-core
 * slot array (core/instr_slots.hh) and are recycled aggressively, so
 * these tests prove that recycled storage can never leak state between
 * instructions or between runs — the result of a simulation is
 * bit-identical no matter how many simulations the process ran before
 * it, and no matter how hard the squash path churned the slots. Run
 * them under -DSMTAVF_SANITIZE=address as well (tools/check.sh asan):
 * the squash-heavy cases below exist for exactly that.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/campaign.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace smtavf
{
namespace
{

/** Full-result fingerprint: every field the journal round-trips. */
std::string
resultText(const Experiment &e, const SimResult &r)
{
    return serializeRun(experimentFingerprint(e), r);
}

TEST(PoolRecycle, BackToBackSimulatorsBitIdentical)
{
    auto e = makeExperiment(findMix("2ctx-mix-A"), FetchPolicyKind::Icount,
                            30000);
    auto first = runExperiment(e);
    // The second Simulator starts from a process state the first one
    // warmed (allocator caches, pools constructed and destroyed). Its
    // result must not notice.
    auto second = runExperiment(e);
    EXPECT_EQ(resultText(e, first), resultText(e, second));
}

TEST(PoolRecycle, InterleavedConfigsBitIdentical)
{
    auto a = makeExperiment(findMix("2ctx-mix-A"), FetchPolicyKind::Icount,
                            20000);
    auto b = makeExperiment(findMix("2ctx-mem-A"), FetchPolicyKind::Stall,
                            20000);
    auto a1 = runExperiment(a);
    auto b1 = runExperiment(b);
    auto a2 = runExperiment(a);
    auto b2 = runExperiment(b);
    EXPECT_EQ(resultText(a, a1), resultText(a, a2));
    EXPECT_EQ(resultText(b, b1), resultText(b, b2));
}

/**
 * FLUSH on a memory-bound mix squashes entire in-flight windows on every
 * L2 miss: slots are returned to the free list in bulk mid-run and
 * immediately re-allocated by re-fetch. Two identical runs must still
 * agree bit-for-bit — and under ASan this is the test that walks the
 * recycler's use-after-free surface hardest.
 */
TEST(PoolRecycle, SquashHeavyFlushRunBitIdentical)
{
    auto e = makeExperiment(findMix("4ctx-mem-A"), FetchPolicyKind::Flush,
                            40000);
    e.cfg.seed = 1234;
    auto first = runExperiment(e);
    auto second = runExperiment(e);
    EXPECT_EQ(resultText(e, first), resultText(e, second));
    EXPECT_GT(first.cycles, 0u);
}

/**
 * The squash-heaviest path: FLUSH at 8 contexts on a memory-bound mix.
 * Squashed loads leave the completion wheel early and up to eight
 * windows at a time go back to the free list, so the slot array runs
 * close to its bound. The run checks slots.ownership every 16 cycles,
 * ends with every slot free, and repeats bit for bit.
 */
TEST(PoolRecycle, EightContextFlushRunBitIdentical)
{
    auto e = makeExperiment(findMix("8ctx-mem-A"), FetchPolicyKind::Flush,
                            48000);
    e.cfg.invariantCheckCycles = 16;
    Simulator sim(e.cfg, e.mix);
    auto first = sim.run(e.budget);
    EXPECT_EQ(sim.core().slots().live(), 0u);
    EXPECT_GT(first.stats.get("squashed"), 0.0);
    auto second = runExperiment(e);
    EXPECT_EQ(resultText(e, first), resultText(e, second));
}

} // namespace
} // namespace smtavf
