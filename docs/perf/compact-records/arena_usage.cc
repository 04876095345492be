/**
 * @file
 * Arena use after construction by context count: the figures behind
 * "Arena-backed construction" in docs/PERFORMANCE.md.
 *
 * For each point of the run-cpu sweep (and 4ctx-mem-A) it builds one
 * Simulator and prints its arena's slab count, the bytes those slabs map
 * (headers included) and the bytes used: mapped less the head slab's
 * free tail, so a tail a second slab left unused in the first counts as
 * used.
 *
 * The arena does not expose its slabs, so this runs against an
 * instrumented copy of src/ outside the repository, never the
 * repository's own. Add to Arena's public section (base/arena.hh):
 *
 *     void usage(std::size_t &slabs, std::size_t &mapped,
 *                std::size_t &used) const
 *     {
 *         slabs = mapped = 0;
 *         for (const Slab *s = head_; s; s = s->next) {
 *             ++slabs;
 *             mapped += s->bytes;
 *         }
 *         used = mapped - static_cast<std::size_t>(end_ - cur_);
 *     }
 *
 * and to Simulator's (sim/simulator.hh):
 *
 *     const Arena &arenaRef() const { return arena_; }
 *
 * then build the copy's library and link this file against it:
 *
 *     cmake -S COPY -B COPY-build && cmake --build COPY-build -t smtavf
 *     g++ -std=c++20 -ICOPY/src docs/perf/compact-records/arena_usage.cc \
 *         COPY-build/src/libsmtavf.a -pthread -o arena_usage
 *     ./arena_usage LABEL
 */

#include <cstdio>
#include <string>

#include "sim/campaign.hh"
#include "sim/simulator.hh"
#include "workload/mixes.hh"

using namespace smtavf;

int
main(int argc, char **argv)
{
    const std::string label = argc > 1 ? argv[1] : "";
    const WorkloadMix solo{"1ctx-bzip2", 1, MixType::Cpu, 'A', {"bzip2"}};
    const WorkloadMix *mixes[] = {&solo, &findMix("2ctx-cpu-A"),
                                  &findMix("4ctx-cpu-A"),
                                  &findMix("4ctx-mem-A"),
                                  &findMix("8ctx-cpu-A")};
    constexpr double mib = 1024.0 * 1024.0;
    for (const WorkloadMix *mix : mixes) {
        const Experiment e = makeExperiment(*mix, FetchPolicyKind::Icount, 1);
        Simulator sim(e.cfg, e.mix);
        std::size_t slabs = 0, mapped = 0, used = 0;
        sim.arenaRef().usage(slabs, mapped, used);
        std::printf("{\"label\": \"%s\", \"mix\": \"%s\", \"contexts\": %u, "
                    "\"slabs\": %zu, \"mapped_mib\": %.3f, "
                    "\"used_mib\": %.3f}\n",
                    label.c_str(), mix->name.c_str(), mix->contexts, slabs,
                    mapped / mib, used / mib);
    }
    return 0;
}
