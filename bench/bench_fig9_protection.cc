/**
 * @file
 * Figure 9 (extension): the paper's Section-4.1 vulnerability ranking
 * turned actionable. The structures with the highest raw AVF are the
 * protection priorities; sweeping parity / SECDED / SECDED+scrubbing
 * over the top-k hotspots yields the machine's reliability-cost Pareto
 * frontier (residual SER vs. area/energy overhead vs. IPC).
 *
 * Everything runs over the campaign pool, so the table is bit-identical
 * for any SMTAVF_JOBS value. Wall-clock timing goes to stderr to keep
 * stdout deterministic.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "protect/explorer.hh"

int
main()
{
    using namespace smtavf;
    using namespace smtavf::bench;

    banner("Figure 9: Protection Priority and Reliability-Cost Frontier "
           "(4 contexts, ICOUNT)");

    const auto &mix = findMix("4ctx-mix-A");
    auto cfg = table1Config(mix.contexts);
    const auto bits = structureBitCapacities(cfg);

    CampaignRunner pool;
    auto t0 = std::chrono::steady_clock::now();

    ProtectionExplorer explorer(cfg, mix);
    auto result =
        explorer.exploreBeam(pool, ProtectionExplorer::prefixSweep());

    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr,
                 "(campaign: %zu runs on %u workers in %.2fs; set "
                 "SMTAVF_JOBS to change the pool)\n",
                 result.points.size(), pool.jobs(), dt.count());

    // Section 4.1 as a priority list: protect in this order. The bit
    // capacity next to each hotspot is what that protection costs.
    std::puts("-- protection priority (raw AVF, descending) --");
    TextTable p({"rank", "structure", "bits"});
    for (std::size_t i = 0; i < result.priority.size(); ++i) {
        auto s = result.priority[i];
        p.addRow({std::to_string(i + 1), hwStructName(s),
                  std::to_string(bits[static_cast<std::size_t>(s)])});
    }
    std::fputs(p.str().c_str(), stdout);

    std::printf("\n-- Pareto frontier (%zu of %zu assignments "
                "non-dominated) --\n",
                result.frontier.size(), result.points.size());
    std::fputs(result.table().c_str(), stdout);

    std::size_t protected_on_frontier = 0;
    for (auto i : result.frontier)
        if (result.points[i].protection.any())
            ++protected_on_frontier;
    std::printf("\nnon-dominated protected assignments: %zu\n",
                protected_on_frontier);

    // -- beam search over mixed per-structure schemes ---------------------
    // The prefix sweep can only buy protection in ranking order with one
    // scheme; the beam search mixes schemes and per-structure scrub
    // intervals, and should find at least one assignment that strictly
    // dominates the sweep's best point.
    t0 = std::chrono::steady_clock::now();
    BeamOptions bo;
    bo.beamWidth = 4;
    bo.generations = 1;
    bo.maxStructures = 4; // match the prefix sweep's default depth
    auto beam = explorer.exploreBeam(pool, bo);
    dt = std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr,
                 "(beam: %llu evaluations, %llu pruned unsimulated, "
                 "%.2fs)\n",
                 static_cast<unsigned long long>(beam.evaluations),
                 static_cast<unsigned long long>(beam.prunedCount),
                 dt.count());

    std::printf("\n-- beam search (width %u, %u generation%s): %zu of %zu "
                "non-dominated --\n",
                bo.beamWidth, bo.generations,
                bo.generations == 1 ? "" : "s", beam.frontier.size(),
                beam.points.size());
    std::fputs(beam.table().c_str(), stdout);

    // Best prefix point: lowest residual SER, cheapest energy tie-break.
    std::size_t best = 0;
    for (std::size_t i = 1; i < result.points.size(); ++i) {
        const auto &p = result.points[i];
        const auto &b = result.points[best];
        if (p.residualSer < b.residualSer ||
            (p.residualSer == b.residualSer &&
             p.energyOverhead < b.energyOverhead))
            best = i;
    }
    const ProtectionPoint &bp = result.points[best];
    // Lexicographically-smallest beam assignment dominating it, so the
    // line below is deterministic.
    const ProtectionPoint *dom = nullptr;
    for (const auto &p : beam.points)
        if (ProtectionExplorer::dominates(p, bp) &&
            (!dom || p.label < dom->label))
            dom = &p;
    if (dom) {
        std::printf("\nbeam strictly dominates the best prefix point "
                    "(%s):\n  %s\n  residual %.4f <= %.4f, area %.4f%% <= "
                    "%.4f%%, energy %.4f%% < %.4f%%\n",
                    bp.label.c_str(), dom->label.c_str(), dom->residualSer,
                    bp.residualSer, 100 * dom->areaOverhead,
                    100 * bp.areaOverhead, 100 * dom->energyOverhead,
                    100 * bp.energyOverhead);
    } else {
        std::puts("\nbeam found no assignment dominating the best prefix "
                  "point");
    }

    std::puts("\ntakeaway: the AVF ranking is the protection shopping list "
              "-- a few\nhot structures buy most of the residual-SER "
              "reduction at a fraction\nof whole-machine ECC cost; mixing "
              "schemes and scrub intervals per\nstructure buys the same "
              "residual SER strictly cheaper than any\nsingle-scheme "
              "prefix.");
    return 0;
}
