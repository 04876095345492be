/**
 * @file
 * Benchmark harness: runs one workload through the smtavf library's
 * public API and prints a JSON report as its last line of output.
 *
 *   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
 *                    --jobs J --scratch DIR
 *
 * perfbench/run.py builds and invokes it; see perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "base/env.hh"
#include "sim/errors.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness --workload "
                 "NAME --seed N --seconds S --trace 0|1 --jobs J --scratch "
                 "DIR\n",
                 why.c_str());
    std::exit(2);
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::fprintf(stderr, "perfbench_harness: refusing to time %s\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
number(const char *flag, const char *text)
{
    std::uint64_t v = 0;
    if (!smtavf::strictParseU64(text, v))
        usage(std::string(flag) + " needs a non-negative integer");
    return v;
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_workload = false, have_scratch = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *v = argv[i + 1];
        if (flag == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = number("--seed", v);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(number("--seconds", v));
        } else if (flag == "--trace") {
            opt.trace = number("--trace", v) != 0;
        } else if (flag == "--jobs") {
            opt.jobs = static_cast<unsigned>(number("--jobs", v));
        } else if (flag == "--scratch") {
            opt.scratch = v;
            have_scratch = true;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_scratch)
        usage("--workload and --scratch are required");
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known = known || w == opt.workload;
    if (!known)
        usage("unknown workload " + opt.workload);
    if (opt.seconds < 1 || opt.jobs == 0)
        usage("--seconds and --jobs must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::Options opt = parse(argc, argv);

    // Timing a debug build, or one with the invariant checker on, would
    // measure a different program.
#ifndef NDEBUG
    refuse("a build without NDEBUG");
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        refuse("a " + std::string(PERFBENCH_BUILD_TYPE) +
               " build; configure with CMAKE_BUILD_TYPE=Release");
    if (smtavf::envInvariantCycles() != 0 ||
        std::getenv("SMTAVF_INVARIANTS"))
        refuse("with SMTAVF_INVARIANTS set");

    perfbench::Report report;
    perfbench::Trace trace(opt.trace);
    try {
        perfbench::runWorkload(opt, trace, report);
        if (opt.trace)
            trace.write(opt.scratch + "/spans.jsonl");
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
    } catch (const smtavf::SimError &e) {
        report.fail("simulation error: " + e.message);
    }
    std::cout << report.json() << std::endl;
    return 0;
}
