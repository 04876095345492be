/**
 * @file
 * Shared-warmup benchmark *and* correctness gate: runs the beam-search
 * protection explorer with per-run warmup vs. one shared warmup
 * checkpoint and reports both wall-clock and the simulated-instruction
 * counts (the honest metric — wall-clock also moves with host load).
 *
 * Before any timing, main() asserts the two contracts the optimization
 * rests on, and exits nonzero if either fails:
 *
 *  1. the explored frontier is *bit-identical* (ExplorationResult::csv()
 *     compares every hexfloat) between the shared and unshared paths;
 *  2. the shared path simulates measurably fewer instructions — at
 *     least (evaluations - 1) x warmup fewer, since every run after the
 *     first skips its warmup prefix.
 *
 * tools/bench.sh runs this binary alongside bench_micro_sim and merges
 * both reports into BENCH_micro.json.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "protect/explorer.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

namespace
{

using namespace smtavf;

constexpr std::uint64_t kBudget = 30'000;
constexpr std::uint64_t kWarmup = 20'000;

struct ExploreOutcome
{
    std::string csv;             ///< full result dump, frontier included
    std::uint64_t instrs = 0;    ///< simulated instructions, warmups incl.
    std::uint64_t evaluations = 0;
};

ExploreOutcome
runExplorer(bool shared)
{
    ProtectionExplorer ex(table1Config(2), findMix("2ctx-mix-A"), kBudget);
    CampaignRunner pool(4);
    BeamOptions bo;
    bo.beamWidth = 4;
    bo.generations = 2;
    bo.maxStructures = 4;
    bo.warmup = kWarmup;
    bo.sharedWarmup = shared;

    auto &counter = simulatedInstructionCounter();
    counter.store(0);
    ExplorationResult res = ex.exploreBeam(pool, bo);
    ExploreOutcome out;
    out.instrs = counter.load();
    out.csv = res.csv();
    out.evaluations = res.evaluations;
    return out;
}

void
BM_ExplorerWarmup(benchmark::State &state)
{
    const bool shared = state.range(0) != 0;
    std::uint64_t instrs = 0;
    for (auto _ : state)
        instrs = runExplorer(shared).instrs;
    state.counters["simulated_instructions"] =
        benchmark::Counter(static_cast<double>(instrs));
    state.SetLabel(shared ? "shared-warmup" : "per-run-warmup");
}
BENCHMARK(BM_ExplorerWarmup)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** The gate: bit-identical frontier, provably fewer instructions. */
int
verifySharedWarmup()
{
    ExploreOutcome plain = runExplorer(false);
    ExploreOutcome shared = runExplorer(true);

    if (plain.csv != shared.csv) {
        std::fprintf(stderr,
                     "FAIL: shared-warmup frontier differs from the "
                     "per-run-warmup frontier\n");
        return 1;
    }
    // Unshared: every evaluation (baseline + candidates) warms up.
    // Shared: exactly one warmup is simulated. Require the full saving;
    // the shared path's one warmup plus its drain overshoot is covered
    // by the strict-inequality margin of the unshared total.
    std::uint64_t expected_saving = (plain.evaluations) * kWarmup;
    if (shared.instrs + expected_saving > plain.instrs + kWarmup * 2) {
        std::fprintf(stderr,
                     "FAIL: shared warmup saved too little: unshared=%llu "
                     "shared=%llu evaluations=%llu warmup=%llu\n",
                     static_cast<unsigned long long>(plain.instrs),
                     static_cast<unsigned long long>(shared.instrs),
                     static_cast<unsigned long long>(plain.evaluations),
                     static_cast<unsigned long long>(kWarmup));
        return 1;
    }
    std::fprintf(stderr,
                 "shared-warmup gate: ok (frontier identical; "
                 "instructions %llu -> %llu over %llu evaluations)\n",
                 static_cast<unsigned long long>(plain.instrs),
                 static_cast<unsigned long long>(shared.instrs),
                 static_cast<unsigned long long>(plain.evaluations));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (int rc = verifySharedWarmup())
        return rc;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
