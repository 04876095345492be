/**
 * @file
 * Shared pieces of the benchmark harness: invocation options, host
 * clocks and resource usage, record digests, and the report the harness
 * prints as its last line for run.py to turn into metrics.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/campaign.hh"

namespace perfbench
{

/** Settings of one harness invocation (run.py passes all of them). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Campaign and explorer worker count (run.py caps it at the CPU set). */
    unsigned jobs = 4;
    /** Private directory for journals and the span file. */
    std::string scratch;
};

/** Seconds on the monotonic wall clock. */
double wallNow();
/** CPU seconds of the calling thread. */
double threadCpuNow();
/** CPU seconds (user + system) of this process, every thread. */
double processCpuNow();
/** CPU seconds of reaped child processes. */
double childrenCpuNow();
/** Peak resident set of this process, MiB. */
double peakRssMb();
/** Peak resident set of the largest reaped child, MiB (0: none yet). */
double childPeakRssMb();

/**
 * Wall seconds that @p threads threads take, together, for a fixed
 * amount of work independent of the library: the host's speed now.
 */
double hostYardstick(unsigned threads);

/** 64-bit FNV-1a, for digests of `run v3` records and explorer CSVs. */
std::uint64_t fnv1a(const std::string &bytes, std::uint64_t h =
                                                  0xcbf29ce484222325ull);
/** 16 lower-case hex digits. */
std::string hex16(std::uint64_t v);

/** The `run v3` record of one run: the benchmark's unit of output. */
std::string runRecord(const smtavf::Experiment &e,
                      const smtavf::SimResult &r);

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> v);

/**
 * What the harness reports. run.py maps `e2e` to the end-to-end metrics,
 * `layers` and `dists` to the per-layer ones (a dist becomes a median
 * and a tail), and fails the run when `failed` is nonzero.
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check. */
    std::vector<std::string> errors;
    /** Name -> digest of that output, printed so any two builds compare. */
    std::map<std::string, std::string> digests;
    std::map<std::string, double> e2e;
    std::map<std::string, double> layers;
    /** Raw samples of a distribution metric. */
    std::map<std::string, std::vector<double>> dists;
    /** Histogram of a distribution metric: {low, high, count} buckets. */
    std::map<std::string, std::vector<std::array<double, 3>>> histograms;
    /** Context for the reader: pass counts, worker count, ... */
    std::map<std::string, double> info;

    void fail(const std::string &what);
    /** The whole report as one JSON line. */
    std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
