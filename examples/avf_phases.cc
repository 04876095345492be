/**
 * @file
 * Example: vulnerability phase behaviour — sample the IQ and register-file
 * AVF in fixed windows over a run and print the series plus each
 * structure's phase variability (companion-work of the reproduced paper:
 * Fu et al., MASCOTS 2006).
 *
 * Usage: avf_phases [mix-name] [window-cycles]
 */

#include <cstdio>

#include "base/env.hh"
#include "base/table.hh"
#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace smtavf;

    const char *mix_name = argc > 1 ? argv[1] : "4ctx-mix-A";
    std::uint64_t window = 5000;
    if (argc > 2 && (!strictParseU64(argv[2], window) || window == 0)) {
        std::fprintf(stderr,
                     "usage: avf_phases [mix-name] [window-cycles > 0]\n");
        return 2;
    }

    const auto &mix = findMix(mix_name);
    auto cfg = table1Config(mix.contexts);
    cfg.avfSampleCycles = window;
    auto r = runMix(cfg, mix, 0);
    const auto &rows = r.timeline->data();

    std::printf("AVF phases of %s (window %llu cycles, %zu windows)\n\n",
                mix.name.c_str(), static_cast<unsigned long long>(window),
                rows.size());

    const HwStruct shown[] = {HwStruct::IQ, HwStruct::RegFile, HwStruct::ROB,
                              HwStruct::Dl1Tag};
    TextTable t({"window", "IQ", "Reg", "ROB", "DL1_tag"});
    for (const auto &row : rows) {
        std::vector<std::string> cells{std::to_string(row.index)};
        for (auto s : shown)
            cells.push_back(
                TextTable::pct(row.avf[static_cast<std::size_t>(s)], 1));
        t.addRow(cells);
    }
    std::fputs(t.str().c_str(), stdout);

    std::puts("\nphase variability (stddev/mean of window AVF):");
    for (auto s : shown)
        std::printf("  %-8s %.3f\n", hwStructName(s),
                    r.timeline->variability(s));
    return 0;
}
