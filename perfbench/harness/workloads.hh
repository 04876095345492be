/**
 * @file
 * The benchmark's five workloads. Each builds its inputs from the seed,
 * runs closed-loop passes (the next pass starts when the last one has
 * finished), each in a freshly forked process, until its time is up,
 * checks every simulated output, and reports each metric over the passes
 * (see PassTimes in workloads.cc). A traced invocation spends half its
 * time on such passes, then replays the workload with spans and runs the
 * layer probes on the workload's own inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "trace.hh"

namespace perfbench
{

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run opt.workload, filling @p report; spans go to @p trace. */
void runWorkload(const Options &opt, Trace &trace, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
