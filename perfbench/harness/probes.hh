/**
 * @file
 * Layer probes of the traced run. Each probe calls one layer's public
 * functions on the traced workload's own inputs (its runs, streams,
 * records and configuration) and records spans around those calls, so
 * every workload reports every per-layer metric from the same code.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <vector>

#include "ckpt/checkpoint.hh"
#include "common.hh"
#include "protect/explorer.hh"
#include "trace.hh"

namespace perfbench
{

/** What the probes take from the workload being traced. */
struct LayerInputs
{
    /** Runs the stepped replay replays tick by tick. */
    std::vector<smtavf::Experiment> stepped;
    /** Simulator::run() results of the same runs, in the same order. */
    std::vector<smtavf::SimResult> steppedRef;
    /** Restored before each stepped run (explore's warmup); null: none. */
    const smtavf::Checkpoint *warmup = nullptr;
    /** The workload's runs and results; their records feed the journal
     *  and isolate probes. */
    std::vector<smtavf::Experiment> runs;
    std::vector<smtavf::SimResult> results;
    /** The checkpoint, stream and protection probes use this run. */
    smtavf::Experiment rep;
};

/**
 * Replay each stepped run with SmtCore::tick() under a span, then the
 * same finalize calls Simulator::run() makes. Fails the report when a
 * replay's cycles, commits or AVF differ from its run() result (the
 * trace is void then). Reports the core, mem and avf simulated counts,
 * tick, construct, reset and finalize times and the tick loop's share.
 * Returns the wall seconds of the replays (construction to finalize).
 */
double steppedProbe(const LayerInputs &in, Trace &trace, Report &report);

/** StreamGenerator, ThreadPredictor and MemHierarchy on rep's streams. */
void streamProbe(const LayerInputs &in, Trace &trace, Report &report);

/** RunJournal::append of the workload's records, then loadJournal. */
void journalProbe(const Options &opt, const LayerInputs &in, Trace &trace,
                  Report &report);

/** runInChild and runBatchInChild shipping the workload's results. */
void isolateProbe(const LayerInputs &in, Trace &trace, Report &report);

/** Capture, restore, encode and decode a warmup checkpoint of rep. */
void ckptProbe(const LayerInputs &in, std::uint64_t warmup, Trace &trace,
               Report &report);

/** protect.* from an exploration's result. */
void protectLayers(const smtavf::ExplorationResult &res, Report &report);

/**
 * Simulated instructions committed per thread-CPU second of one
 * untraced Simulator::run() of @p e (construction excluded).
 */
double runIps(const smtavf::Experiment &e);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
