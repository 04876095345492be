/**
 * @file
 * Validation: statistical fault injection vs. ACE analysis (the
 * complementary methodology of the paper's Sections 2 and 6).
 *
 * For each 4-context workload type: the first-level dynamic dead fraction
 * the AVF model uses, and the masked/corruption rates an architectural
 * taint-propagation injection campaign measures over the same run's
 * commit trace. Injection masking must upper-bound FDD deadness (it also
 * catches transitively dead chains); the gap quantifies the conservatism
 * of first-level-only analysis.
 *
 * Doubly parallel: the trace-producing simulations run as one campaign,
 * and each injection campaign fans its (embarrassingly parallel) trials
 * over the same pool, with origins drawn from one seeded stream, so the
 * verdict counts are identical for every SMTAVF_JOBS setting.
 */

#include <chrono>
#include <cstdio>

#include "avf/injection.hh"
#include "bench_util.hh"

int
main()
{
    using namespace smtavf;
    using namespace smtavf::bench;

    banner("Validation: fault injection vs. ACE/dead-code analysis "
           "(4 contexts)");

    const std::uint64_t trials = 4000 * benchScale();

    CampaignRunner pool;
    auto t0 = std::chrono::steady_clock::now();

    // Stage 1: every traced mix of every type, one campaign.
    std::vector<Experiment> exps;
    std::vector<std::size_t> type_begin;
    for (auto type : mixTypes()) {
        type_begin.push_back(exps.size());
        for (const auto &mix : mixesOf(4, type)) {
            Experiment e = makeExperiment(mix, FetchPolicyKind::Icount);
            e.cfg.recordCommitTrace = true;
            exps.push_back(std::move(e));
        }
    }
    type_begin.push_back(exps.size());
    auto runs = pool.run(exps);

    // Stage 2: per-run injection campaigns, trials fanned over the pool.
    TextTable t({"workload", "FDD dead", "injection masked",
                 "injection corrupted", "transitive gap"});
    for (std::size_t ti = 0; ti < mixTypes().size(); ++ti) {
        auto type = mixTypes()[ti];
        std::size_t begin = type_begin[ti], end = type_begin[ti + 1];
        double n = static_cast<double>(end - begin);
        double fdd = 0, masked = 0, corrupted = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const auto &r = runs[i];
            InjectionCampaign campaign(*r.commitTrace);
            auto res = runInjection(pool, campaign, trials,
                                    exps[i].cfg.seed);
            fdd += r.stats.get("deadCode.fraction") / n;
            masked += res.maskedRate() / n;
            corrupted += res.corruptionRate() / n;
        }
        t.addRow({mixTypeName(type), TextTable::pct(fdd, 1),
                  TextTable::pct(masked, 1), TextTable::pct(corrupted, 1),
                  TextTable::pct(masked - fdd, 1)});
    }
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    campaignNote(pool, exps.size(), dt.count());

    std::fputs(t.str().c_str(), stdout);
    std::puts("\n(masked >= FDD dead by construction; the gap is the "
              "transitively-dead work first-level analysis cannot see)");
    return 0;
}
