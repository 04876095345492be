/**
 * @file
 * Construction cost by context count: the records behind the
 * "Construction" section of docs/PERFORMANCE.md.
 *
 * For each point it builds the same Simulator with and without
 * prewarm, alternating, and prints one JSON line with the medians:
 * `construct_ms` (with prewarm, as every run builds it), `bare_ms`
 * (prewarmCaches off) and `prewarm_ms`, their difference. The first
 * rounds only warm the thread's arena slab cache and are not timed.
 *
 * Build it against the library of a Release or RelWithDebInfo tree
 * (the library is link-time optimised, hence -flto):
 *
 *     g++ -std=c++20 -O2 -flto=auto -Isrc \
 *         docs/perf/construction/construct_cost.cc build/src/libsmtavf.a \
 *         -pthread -o construct_cost
 *     taskset -c 2 ./construct_cost LABEL [ROUNDS]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

using namespace smtavf;

namespace
{

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Milliseconds to construct (and destroy) one Simulator for @p e. */
double
constructMs(const Experiment &e)
{
    const auto t0 = std::chrono::steady_clock::now();
    {
        Simulator sim(e.cfg, e.mix);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string label = argc > 1 ? argv[1] : "";
    const int rounds = argc > 2 ? std::atoi(argv[2]) : 400;
    const int untimed = 20;

    const WorkloadMix solo{"1ctx-bzip2", 1, MixType::Cpu, 'A', {"bzip2"}};
    const WorkloadMix *mixes[] = {&solo, &findMix("2ctx-cpu-A"),
                                  &findMix("4ctx-cpu-A"),
                                  &findMix("4ctx-mem-A"),
                                  &findMix("8ctx-cpu-A")};
    for (const WorkloadMix *mix : mixes) {
        Experiment warm = makeExperiment(*mix, FetchPolicyKind::Icount, 1);
        Experiment bare = warm;
        bare.cfg.prewarmCaches = false;

        std::vector<double> with, without;
        for (int r = 0; r < untimed + rounds; ++r) {
            const double w = constructMs(warm);
            const double b = constructMs(bare);
            if (r >= untimed) {
                with.push_back(w);
                without.push_back(b);
            }
        }
        const double construct = median(with);
        const double bare_ms = median(without);
        std::printf("{\"label\": \"%s\", \"mix\": \"%s\", \"contexts\": %u, "
                    "\"rounds\": %d, \"construct_ms\": %.4f, "
                    "\"bare_ms\": %.4f, \"prewarm_ms\": %.4f}\n",
                    label.c_str(), mix->name.c_str(), mix->contexts, rounds,
                    construct, bare_ms, construct - bare_ms);
    }
    return 0;
}
