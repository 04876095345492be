/**
 * @file
 * The paper's performance/reliability metrics:
 *
 *  - IPC (throughput) per run and per thread;
 *  - MITF, mean instructions to failure, which at fixed frequency and raw
 *    error rate is proportional to IPC/AVF (Weaver et al., ISCA'04) — the
 *    reliability-efficiency metric of Figures 2, 4 and 7;
 *  - weighted speedup (Snavely & Tullsen) and the harmonic mean of
 *    weighted IPC (Luo et al.), the fairness-aware metrics of Figure 8.
 */

#ifndef SMTAVF_METRICS_METRICS_HH
#define SMTAVF_METRICS_METRICS_HH

#include <memory>
#include <string>
#include <vector>

#include "avf/injection.hh"
#include "avf/interval_series.hh"
#include "avf/report.hh"
#include "base/stats.hh"
#include "base/types.hh"

namespace smtavf
{

/** One thread's share of a run. */
struct ThreadPerf
{
    std::string benchmark;
    std::uint64_t committed = 0;
    double ipc = 0.0;
};

/** Everything a finished simulation reports. */
struct SimResult
{
    std::string mixName;
    std::string policyName;
    Cycle cycles = 0;
    std::uint64_t totalCommitted = 0;
    double ipc = 0.0;
    std::vector<ThreadPerf> threads;
    AvfReport avf;
    StatGroup stats; ///< miss rates, mispredict rates, dead fraction, ...
    /** Cycle-windowed AVF rows (set when MachineConfig::avfSampleCycles). */
    std::shared_ptr<const AvfIntervalSeries> timeline;
    /** Instruction-windowed AVF rows (set by RunControls::avfInterval). */
    std::shared_ptr<const AvfIntervalSeries> avfIntervals;
    /** Commit trace (set when MachineConfig::recordCommitTrace). */
    std::shared_ptr<const CommitTrace> commitTrace;

    /** Reliability efficiency of a structure: IPC / AVF (prop. to MITF). */
    double mitf(HwStruct s) const;

    /** Per-thread reliability efficiency: thread IPC / thread AVF. */
    double threadMitf(HwStruct s, ThreadId tid) const;
};

/**
 * Weighted speedup: sum over threads of IPC_i(SMT) / IPC_i(single-thread).
 * @p st_ipc holds the stand-alone IPC of each thread, same order.
 */
double weightedSpeedup(const SimResult &smt, const std::vector<double> &st_ipc);

/** Harmonic mean of the per-thread weighted IPCs (fairness-sensitive). */
double harmonicWeightedIpc(const SimResult &smt,
                           const std::vector<double> &st_ipc);

/** Harmonic mean of raw per-thread IPCs. */
double harmonicMeanIpc(const SimResult &smt);

} // namespace smtavf

#endif // SMTAVF_METRICS_METRICS_HH
