#include "sim/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <unordered_map>

#include <unistd.h>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "ckpt/checkpoint.hh"
#include "sim/errors.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace smtavf
{

Experiment
makeExperiment(const WorkloadMix &mix, FetchPolicyKind policy,
               std::uint64_t budget)
{
    Experiment e;
    e.label = mix.name + "/" + fetchPolicyName(policy);
    e.cfg = table1Config(mix.contexts);
    e.cfg.fetchPolicy = policy;
    e.mix = mix;
    e.budget = budget;
    return e;
}

SimResult
runExperiment(const Experiment &e)
{
    if (e.warmup == 0)
        return runMix(e.cfg, e.mix, e.budget);
    std::uint64_t budget = e.budget ? e.budget : defaultBudget(e.mix.contexts);
    Simulator sim(e.cfg, e.mix);
    RunControls rc;
    rc.warmup = e.warmup;
    return sim.run(budget, rc);
}

void
deriveSeeds(std::vector<Experiment> &exps, std::uint64_t master)
{
    for (std::size_t i = 0; i < exps.size(); ++i)
        exps[i].cfg.seed = splitSeed(master, i);
}

std::vector<Experiment>
shardExperiments(const std::vector<Experiment> &exps, unsigned shard,
                 unsigned nshards)
{
    if (nshards == 0)
        SMTAVF_FATAL("shard count must be positive");
    if (shard >= nshards)
        SMTAVF_FATAL("shard index ", shard, " out of range for ", nshards,
                     " shards");
    std::vector<Experiment> out;
    for (std::size_t i = shard; i < exps.size(); i += nshards)
        out.push_back(exps[i]);
    return out;
}

/**
 * One in-flight forEach() call. All fields are guarded by the pool
 * mutex; fn runs unlocked. The batch lives on the submitting thread's
 * stack: the last worker to finish an index is the last to touch it
 * (every claimed index contributes exactly one `done` increment, and
 * workers that claim nothing never keep a pointer to it).
 */
struct CampaignRunner::Batch
{
    const std::function<void(std::size_t)> *fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;
    std::size_t done = 0;
    std::exception_ptr error;
};

unsigned
CampaignRunner::defaultJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (unsigned env = envJobs(); env > 0)
        return env;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

CampaignRunner::CampaignRunner(unsigned jobs) : jobs_(defaultJobs(jobs))
{
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CampaignRunner::~CampaignRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
CampaignRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_.wait(lock, [this] {
            return stop_ || (batch_ && batch_->next < batch_->n);
        });
        if (stop_)
            return;
        Batch *b = batch_;
        std::size_t index = b->next++;

        lock.unlock();
        std::exception_ptr err;
        try {
            (*b->fn)(index);
        } catch (...) {
            err = std::current_exception();
        }
        lock.lock();

        if (err && !b->error)
            b->error = err;
        if (++b->done == b->n) {
            batch_ = nullptr;
            done_.notify_all();
        }
    }
}

void
CampaignRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    Batch batch;
    batch.fn = &fn;
    batch.n = n;
    std::unique_lock<std::mutex> lock(mutex_);
    if (batch_)
        SMTAVF_FATAL("CampaignRunner::forEach is not re-entrant");
    batch_ = &batch;
    work_.notify_all();
    done_.wait(lock, [&] { return batch.done == batch.n; });
    lock.unlock();
    if (batch.error)
        std::rethrow_exception(batch.error);
}

std::vector<SimResult>
CampaignRunner::run(const std::vector<Experiment> &exps, ProgressFn progress)
{
    std::vector<SimResult> results(exps.size());
    std::mutex progress_mutex;
    std::size_t completed = 0;

    forEach(exps.size(), [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        results[i] = runExperiment(exps[i]);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            CampaignProgress p{i,        exps.size(), ++completed,
                               dt.count(), &exps[i],  &results[i]};
            progress(p);
        }
    });
    return results;
}

std::vector<SimResult>
runMixReplicated(CampaignRunner &pool, const MachineConfig &cfg,
                 const WorkloadMix &mix, unsigned replicas,
                 std::uint64_t budget)
{
    if (replicas == 0)
        SMTAVF_FATAL("need at least one replica");
    std::vector<Experiment> exps;
    exps.reserve(replicas);
    for (unsigned i = 0; i < replicas; ++i) {
        Experiment e;
        e.label = mix.name + "/seed" + std::to_string(cfg.seed + i);
        e.cfg = cfg;
        e.cfg.seed = cfg.seed + i; // match the serial helper exactly
        e.mix = mix;
        e.budget = budget;
        exps.push_back(std::move(e));
    }
    return pool.run(exps);
}

std::vector<SimResult>
runSingleThreadBaselines(CampaignRunner &pool, const MachineConfig &smt_cfg,
                         const WorkloadMix &mix, const SimResult &smt)
{
    if (smt.threads.size() != mix.contexts)
        SMTAVF_FATAL("SMT result has ", smt.threads.size(),
                     " threads for mix ", mix.name);
    std::vector<SimResult> baselines(mix.contexts);
    pool.forEach(mix.contexts, [&](std::size_t tid) {
        baselines[tid] = runSingleThreadBaseline(
            smt_cfg, mix, static_cast<ThreadId>(tid),
            smt.threads[tid].committed);
    });
    return baselines;
}

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Failed:
        return "failed";
      case RunStatus::TimedOut:
        return "timed-out";
      case RunStatus::Quarantined:
        return "quarantined";
    }
    return "?";
}

std::size_t
CampaignReport::count(RunStatus s) const
{
    std::size_t n = 0;
    for (const auto &o : outcomes)
        if (o.status == s)
            ++n;
    return n;
}

std::vector<const SimResult *>
CampaignReport::results() const
{
    std::vector<const SimResult *> out;
    for (const auto &o : outcomes)
        if (o.status == RunStatus::Ok)
            out.push_back(&o.result);
    return out;
}

std::string
CampaignReport::failureReport() const
{
    if (allOk())
        return "";
    std::ostringstream os;
    os << "campaign finished with " << (outcomes.size() - count(RunStatus::Ok))
       << " of " << outcomes.size() << " runs unaccounted for:\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunOutcome &o = outcomes[i];
        if (o.status == RunStatus::Ok)
            continue;
        os << "  run " << i << " [" << o.label << "] seed " << o.seed << ": "
           << runStatusName(o.status) << " after " << o.attempts
           << (o.attempts == 1 ? " attempt" : " attempts");
        if (o.crash != CrashKind::None)
            os << " [" << crashKindName(o.crash) << "]";
        if (!o.error.empty()) {
            // First line only: livelock/invariant messages carry
            // multi-line state dumps meant for logs, not summaries.
            auto nl = o.error.find('\n');
            os << " -- " << o.error.substr(0, nl);
        }
        os << '\n';
    }
    return os.str();
}

std::string
campaignCsv(const std::vector<Experiment> &exps, const CampaignReport &report)
{
    if (exps.size() != report.outcomes.size())
        SMTAVF_FATAL("campaignCsv: ", exps.size(), " experiments but ",
                     report.outcomes.size(), " outcomes");

    std::ostringstream os;
    os << "label,seed,status,attempts,ipc,cycles,instructions";
    for (auto s : AvfReport::figureStructs())
        os << ',' << hwStructName(s);
    for (auto s : AvfReport::figureStructs())
        os << ",residual_" << hwStructName(s);
    os << ",error\n";

    auto fixed6 = [](double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", v);
        return std::string(buf);
    };

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const RunOutcome &o = report.outcomes[i];
        os << exps[i].label << ',' << exps[i].cfg.seed << ','
           << runStatusName(o.status) << ',' << o.attempts;
        const std::size_t figs = AvfReport::figureStructs().size();
        if (o.status == RunStatus::Ok) {
            const SimResult &r = o.result;
            os << ',' << fixed6(r.ipc) << ',' << r.cycles << ','
               << r.totalCommitted;
            for (auto s : AvfReport::figureStructs())
                os << ',' << fixed6(r.avf.avf(s));
            for (auto s : AvfReport::figureStructs())
                os << ',' << fixed6(r.avf.residualAvf(s));
            os << ',';
        } else {
            // Same arity as an Ok row: empty numeric cells, then the
            // first line of the error with commas/newlines sanitized.
            for (std::size_t c = 0; c < 3 + 2 * figs; ++c)
                os << ',';
            std::string err = o.error.substr(0, o.error.find('\n'));
            for (char &c : err)
                if (c == ',')
                    c = ';';
            os << ',' << err;
        }
        os << '\n';
    }
    return os.str();
}

namespace
{

/**
 * Redirect fatal/panic into SimError exceptions for the lifetime of a
 * campaign, restoring the previous mode afterwards. Installed once by the
 * submitting thread (never per worker: workers share the global flag, and
 * per-worker save/restore would race).
 */
class ScopedLoggingThrows
{
  public:
    ScopedLoggingThrows() : prev_(loggingThrows()) { setLoggingThrows(true); }
    ~ScopedLoggingThrows() { setLoggingThrows(prev_); }

  private:
    bool prev_;
};

/**
 * One shared-warmup group: every experiment whose warmup prefix is
 * semantically identical (same workload, machine geometry, seed and
 * warmup length — checkpointFingerprint()) restores from one capture.
 */
struct WarmupGroup
{
    Checkpoint ck;     ///< thread mode: restored from memory
    std::string path;  ///< process mode: the file forked children load
    std::string error; ///< capture failed; members fail with this message
};

/** Per-group checkpoint file path ("" dir = TMPDIR or /tmp). */
std::string
warmupCheckpointPath(const std::string &dir, std::uint64_t key)
{
    std::string base = dir;
    if (base.empty()) {
        const char *t = std::getenv("TMPDIR");
        base = (t && *t) ? t : "/tmp";
    }
    char name[64];
    std::snprintf(name, sizeof(name), "/smtavf-warmup-%016llx-%ld.ckpt",
                  static_cast<unsigned long long>(key),
                  static_cast<long>(::getpid()));
    return base + name;
}

} // namespace

CampaignReport
runTolerant(CampaignRunner &pool, const std::vector<Experiment> &exps,
            const CampaignOptions &opt, CampaignRunner::ProgressFn progress)
{
    CampaignReport report;
    report.outcomes.resize(exps.size());

    if (opt.runsPerChild == 0)
        SMTAVF_FATAL("CampaignOptions::runsPerChild must be at least 1");
    if (opt.runsPerChild > 1 && opt.isolate != IsolateMode::Process)
        SMTAVF_FATAL("CampaignOptions::runsPerChild > 1 batches runs per "
                     "sandboxed child and so requires process isolation; "
                     "thread mode forks no child to amortize");

    std::vector<std::uint64_t> fps(exps.size());
    for (std::size_t i = 0; i < exps.size(); ++i) {
        fps[i] = experimentFingerprint(exps[i]);
        report.outcomes[i].label = exps[i].label;
        report.outcomes[i].seed = exps[i].cfg.seed;
    }

    std::unordered_map<std::uint64_t, SimResult> replay;
    if (opt.resume && !opt.journalPath.empty())
        replay = loadJournal(opt.journalPath);

    std::unique_ptr<RunJournal> journal;
    if (!opt.journalPath.empty())
        journal = std::make_unique<RunJournal>(opt.journalPath);

    const auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
        if (opt.cancel && opt.cancel->load(std::memory_order_relaxed))
            return true;
        if (opt.softTimeoutSeconds <= 0.0)
            return false;
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - start;
        return dt.count() > opt.softTimeoutSeconds;
    };

    ScopedLoggingThrows throws_guard;
    const bool wire_cancel = opt.isolate == IsolateMode::Thread &&
                             opt.cancel && opt.cancelCheckCycles > 0;

    // Shared warmup: simulate each distinct warmup prefix once and let
    // every run in the group restore the captured checkpoint instead of
    // re-simulating it. Groups are keyed by the warmup checkpoint
    // fingerprint, so two experiments share a capture exactly when their
    // warmup-relevant state (workload, machine, seed, warmup length —
    // protection excluded, except under PRAT where the throttle makes
    // the assignment timing-affecting and the fingerprint folds it in,
    // splitting the groups) is identical. A group whose members are all
    // satisfied by the resume journal is never captured.
    const bool share = opt.sharedWarmup && !opt.runFn;
    std::unordered_map<std::uint64_t, WarmupGroup> warmups;
    if (share) {
        std::vector<std::uint64_t> order;
        std::unordered_map<std::uint64_t, std::size_t> first;
        for (std::size_t i = 0; i < exps.size(); ++i) {
            const Experiment &e = exps[i];
            if (e.warmup == 0 || replay.count(fps[i]))
                continue;
            std::uint64_t key =
                checkpointFingerprint(e.cfg, e.mix, e.warmup, true);
            if (first.emplace(key, i).second)
                order.push_back(key);
        }
        for (std::uint64_t key : order)
            warmups.emplace(key, WarmupGroup{});
        // Captures run in the parent on the pool (even in process mode:
        // only the measured runs fork). Fatal paths unwind as exceptions
        // under the logging guard and poison just their own group.
        pool.forEach(order.size(), [&](std::size_t gi) {
            const std::uint64_t key = order[gi];
            WarmupGroup &g = warmups.at(key);
            const Experiment &e = exps[first.at(key)];
            try {
                if (opt.warmupCheckpoint &&
                    opt.warmupCheckpoint->configFingerprint == key) {
                    // Caller already simulated this exact warmup.
                    if (opt.isolate == IsolateMode::Process) {
                        g.path = warmupCheckpointPath(opt.checkpointDir, key);
                        saveCheckpointFile(*opt.warmupCheckpoint, g.path);
                    } else {
                        g.ck = *opt.warmupCheckpoint;
                    }
                    return;
                }
                if (expired())
                    throw std::runtime_error(
                        "warmup not captured: campaign cancelled or past "
                        "its soft timeout");
                MachineConfig cfg = e.cfg;
                if (wire_cancel) {
                    cfg.cancel = opt.cancel;
                    cfg.cancelCheckCycles = opt.cancelCheckCycles;
                }
                Simulator sim(cfg, e.mix);
                g.ck = sim.captureWarmupCheckpoint(e.warmup);
                if (opt.isolate == IsolateMode::Process) {
                    g.path = warmupCheckpointPath(opt.checkpointDir, key);
                    saveCheckpointFile(g.ck, g.path);
                    g.ck = Checkpoint{}; // children read the file
                }
            } catch (const std::exception &err) {
                g.error = err.what();
            } catch (const SimError &err) {
                g.error = err.message;
            }
        });
    }

    // Core of one run: a shared-warmup restore, the runFn seam, or a
    // Simulator built for this run alone (runExperiment). Thread mode
    // wires the campaign's cancel flag into the run's config so
    // Simulator::run() can unwind mid-budget; both knobs are
    // fingerprint-excluded, so journal keys are unchanged. (A forked
    // child's copy of the flag never flips; the supervisor's SIGKILL
    // handles cancellation there.)
    auto run_one = [&](std::size_t i) -> SimResult {
        const Experiment *e = &exps[i];
        Experiment wired;
        if (wire_cancel) {
            wired = exps[i];
            wired.cfg.cancel = opt.cancel;
            wired.cfg.cancelCheckCycles = opt.cancelCheckCycles;
            e = &wired;
        }
        if (opt.runFn)
            return opt.runFn(*e, i);
        if (share && e->warmup > 0) {
            auto it = warmups.find(
                checkpointFingerprint(e->cfg, e->mix, e->warmup, true));
            if (it != warmups.end()) {
                const WarmupGroup &g = it->second;
                if (!g.error.empty())
                    throw std::runtime_error("shared warmup capture failed: "
                                             + g.error);
                std::uint64_t budget =
                    e->budget ? e->budget : defaultBudget(e->mix.contexts);
                Simulator sim(e->cfg, e->mix);
                if (!g.path.empty())
                    sim.restore(loadCheckpointFile(g.path));
                else
                    sim.restore(g.ck);
                return sim.run(budget);
            }
        }
        return runExperiment(*e);
    };

    std::mutex progress_mutex;
    std::size_t completed = 0;
    auto notify = [&](std::size_t i, double seconds) {
        if (!progress)
            return;
        RunOutcome &out = report.outcomes[i];
        std::lock_guard<std::mutex> lock(progress_mutex);
        CampaignProgress p{i,
                           exps.size(),
                           ++completed,
                           seconds,
                           &exps[i],
                           out.status == RunStatus::Ok ? &out.result
                                                       : nullptr,
                           &out};
        progress(p);
    };

    // Settle one attempt of run i from its classified outcome. Returns
    // true when the run must be dispatched again.
    auto settle = [&](std::size_t i, ChildOutcome &&co,
                      double seconds) -> bool {
        using Kind = ChildOutcome::Kind;
        RunOutcome &out = report.outcomes[i];
        ++out.attempts;
        out.crash = co.crash;
        if (co.kind == Kind::Result) {
            out.result = std::move(co.result);
            out.status = RunStatus::Ok;
            out.error.clear();
            if (journal)
                journal->append(fps[i], out.result);
        } else if (co.kind == Kind::Livelock || co.kind == Kind::Cancelled ||
                   co.crash == CrashKind::CpuLimit ||
                   co.crash == CrashKind::HardTimeout) {
            // Deterministic (livelock), deliberate (cancel), or a run
            // that burned past its CPU/wall budget and would burn
            // through it again: timed out, never retried.
            out.status = RunStatus::TimedOut;
            out.error = std::move(co.message);
        } else if (!out.error.empty() && co.message == out.error) {
            // out.error holds the previous attempt's failure: the same
            // seed failing the same way twice is a deterministic bug,
            // not transient flakiness.
            out.status = RunStatus::Quarantined;
        } else {
            out.error = std::move(co.message);
            if (out.attempts <= opt.retries && !expired())
                return true;
            out.status = RunStatus::Failed;
        }
        notify(i, seconds);
        return false;
    };

    // The one attempt loop. Group g is the runs [first, last): one run
    // in thread mode, runsPerChild consecutive runs in process mode.
    // Its pending runs are slots[first, end). Each dispatch runs them —
    // in one forked child that frames each result over the pipe
    // protocol (runBatchInChild), or in this thread through the same
    // classifier — settles every run it attempted and keeps the rest
    // pending: a failure to retry, or a run the child never started,
    // which is not charged an attempt.
    const std::size_t per_group =
        opt.isolate == IsolateMode::Process ? opt.runsPerChild : 1;
    std::vector<std::size_t> slots(exps.size());
    auto run_group = [&](std::size_t g) {
        const std::size_t first = g * per_group;
        const std::size_t last = std::min(exps.size(), first + per_group);
        std::size_t end = first;
        for (std::size_t i = first; i < last; ++i) {
            RunOutcome &out = report.outcomes[i];
            if (auto it = replay.find(fps[i]); it != replay.end()) {
                out.status = RunStatus::Ok;
                out.result = it->second;
                out.fromJournal = true;
                notify(i, 0.0);
            } else {
                slots[end++] = i;
            }
        }

        while (end > first) {
            if (expired()) {
                for (std::size_t j = first; j < end; ++j) {
                    RunOutcome &out = report.outcomes[slots[j]];
                    if (out.attempts == 0) {
                        out.status = RunStatus::TimedOut;
                        out.error = "not started: campaign cancelled or "
                                    "past its soft timeout";
                    } else {
                        out.status = RunStatus::Failed;
                    }
                    notify(slots[j], 0.0);
                }
                return;
            }

            // Back off before a retry, keyed to the head retried run so
            // replays of the campaign sleep identically.
            {
                const RunOutcome &head = report.outcomes[slots[first]];
                if (head.attempts > 0 && opt.backoffSeconds > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(retryBackoffSeconds(
                            head.attempts, head.seed, opt.backoffSeconds)));
            }

            // Dispatch the pending runs, settle each run the dispatch
            // attempted, and compact the rest to the front of the slots.
            const std::size_t n = end - first;
            std::size_t kept = first;
            const auto t0 = std::chrono::steady_clock::now();
            auto elapsed = [&] {
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                    .count();
            };
            if (opt.isolate == IsolateMode::Thread) {
                const std::size_t i = slots[first];
                ChildOutcome co = classifyRun([&] { return run_one(i); });
                if (settle(i, std::move(co), elapsed()))
                    slots[kept++] = i;
            } else {
                ChildLimits lim;
                // The supervisor scales the wall deadline by the batch
                // size; RLIMIT_CPU has no per-run re-arm, so scale it here.
                lim.hardTimeoutSeconds = opt.hardTimeoutSeconds;
                lim.cpuSeconds = opt.childCpuSeconds * n;
                lim.memoryBytes = opt.childMemoryBytes;
                lim.cancel = opt.cancel;
                ChildBatchOutcome bo = runBatchInChild(
                    n,
                    [&](std::size_t k) { return run_one(slots[first + k]); },
                    lim);

                // Attribute a death to the in-flight run. A crash without
                // a started-but-unframed run (fork failure, death between
                // runs) charges the first unreported run so every
                // dispatch makes progress toward the retry bound; a
                // cancel kill charges only a run that had started.
                std::size_t attributed = bo.inFlight;
                if (bo.childDied && !bo.cancelled &&
                    attributed == ChildBatchOutcome::npos)
                    for (std::size_t k = 0; k < n; ++k)
                        if (!bo.reported[k]) {
                            attributed = k;
                            break;
                        }

                std::size_t processed = 0;
                for (std::size_t k = 0; k < n; ++k)
                    if (bo.reported[k] || k == attributed)
                        ++processed;
                const double seconds =
                    elapsed() / static_cast<double>(processed ? processed : 1);

                for (std::size_t k = 0; k < n; ++k) {
                    const std::size_t i = slots[first + k];
                    if (!bo.reported[k] && k != attributed) {
                        // Unstarted (or torn past the crash point): not an
                        // attempt; re-dispatch. A cancelled batch drains
                        // on the next loop's expired() check.
                        slots[kept++] = i;
                        continue;
                    }
                    if (settle(i, std::move(bo.runs[k]), seconds))
                        slots[kept++] = i;
                }
            }
            end = kept;
        }
    };

    pool.forEach((exps.size() + per_group - 1) / per_group,
                 [&](std::size_t g) { run_group(g); });

    for (const auto &kv : warmups)
        if (!kv.second.path.empty())
            std::remove(kv.second.path.c_str());
    return report;
}

InjectionResult
runInjection(CampaignRunner &pool, const InjectionCampaign &campaign,
             std::uint64_t trials, std::uint64_t seed)
{
    InjectionResult total;
    if (campaign.traceSize() == 0 || trials == 0)
        return total;

    // Chunk trials so each pool task amortizes its scheduling cost;
    // verdict counts are sums, so any chunking/scheduling yields the
    // same totals as long as trial t always uses splitSeed(seed, t).
    constexpr std::uint64_t chunk = 256;
    const std::size_t chunks =
        static_cast<std::size_t>((trials + chunk - 1) / chunk);
    std::vector<InjectionResult> partial(chunks);

    pool.forEach(chunks, [&](std::size_t c) {
        std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
        std::uint64_t end = std::min(trials, begin + chunk);
        InjectionResult &res = partial[c];
        for (std::uint64_t t = begin; t < end; ++t) {
            Rng rng(splitSeed(seed, t));
            auto origin = static_cast<std::size_t>(
                rng.uniform(campaign.traceSize()));
            ++res.trials;
            switch (campaign.injectAt(origin)) {
              case InjectionOutcome::Masked:
                ++res.masked;
                break;
              case InjectionOutcome::Corrupted:
                ++res.corrupted;
                break;
              case InjectionOutcome::Skipped:
                ++res.skipped;
                break;
            }
        }
    });

    for (const auto &p : partial) {
        total.trials += p.trials;
        total.corrupted += p.corrupted;
        total.masked += p.masked;
        total.skipped += p.skipped;
    }
    return total;
}

} // namespace smtavf
