/**
 * @file
 * Example: cross-validate the AVF model's dead-code classification with a
 * statistical fault-injection campaign (architectural taint propagation
 * over the recorded commit trace).
 *
 * Usage: injection_validation [mix-name] [trials]
 */

#include <cstdio>
#include <cstdlib>

#include "avf/injection.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace smtavf;

    const char *mix_name = argc > 1 ? argv[1] : "4ctx-mix-A";
    std::uint64_t trials =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5000;

    const auto &mix = findMix(mix_name);
    auto cfg = table1Config(mix.contexts);
    cfg.recordCommitTrace = true;
    auto r = runMix(cfg, mix, 0);

    CampaignRunner pool;
    auto res = runInjection(pool, InjectionCampaign(*r.commitTrace), trials,
                            cfg.seed);

    std::printf("fault-injection validation on %s "
                "(%zu committed instructions, %llu trials)\n\n",
                mix.name.c_str(), r.commitTrace->size(),
                static_cast<unsigned long long>(res.trials));
    std::printf("  FDD dead fraction (AVF model) : %6.2f%%\n",
                100 * r.stats.get("deadCode.fraction"));
    std::printf("  injection masked              : %6.2f%%\n",
                100 * res.maskedRate());
    std::printf("  injection corrupted           : %6.2f%%\n",
                100 * res.corruptionRate());
    std::printf("  transitive-deadness gap       : %6.2f%%\n",
                100 * (res.maskedRate() -
                       r.stats.get("deadCode.fraction")));
    std::puts("\nmasked >= FDD-dead by construction: every first-level\n"
              "dead value masks, and whole dead chains mask on top.");
    return 0;
}
