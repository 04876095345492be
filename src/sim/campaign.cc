#include "sim/campaign.hh"

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
                if (opt.isolate == IsolateMode::Thread && opt.cancel &&
                    opt.cancelCheckCycles > 0) {
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
    // Simulator built for this run alone (runExperiment).
    auto run_one = [&](const Experiment &e, std::size_t i) -> SimResult {
        if (opt.runFn)
            return opt.runFn(e, i);
        if (share && e.warmup > 0) {
            auto it = warmups.find(
                checkpointFingerprint(e.cfg, e.mix, e.warmup, true));
            if (it != warmups.end()) {
                const WarmupGroup &g = it->second;
                if (!g.error.empty())
                    throw std::runtime_error("shared warmup capture failed: "
                                             + g.error);
                std::uint64_t budget =
                    e.budget ? e.budget : defaultBudget(e.mix.contexts);
                Simulator sim(e.cfg, e.mix);
                if (!g.path.empty())
                    sim.restore(loadCheckpointFile(g.path));
                else
                    sim.restore(g.ck);
                return sim.run(budget);
            }
        }
        return runExperiment(e);
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

    // Apply one child/thread outcome to run i's record. Returns true when
    // the run is settled; false leaves the retryable failure in @p msg.
    auto applyChild = [&](ChildOutcome &&co, std::size_t i, RunOutcome &out,
                          std::string &msg) -> bool {
        switch (co.kind) {
        case ChildOutcome::Kind::Result:
            out.result = std::move(co.result);
            out.status = RunStatus::Ok;
            out.error.clear();
            if (journal)
                journal->append(fps[i], out.result);
            return true;
        case ChildOutcome::Kind::Livelock:
        case ChildOutcome::Kind::Cancelled:
            // Deterministic (livelock) or deliberate (cancel): never
            // retried, like thread mode.
            out.status = RunStatus::TimedOut;
            out.error = std::move(co.message);
            return true;
        case ChildOutcome::Kind::Crash:
            out.crash = co.crash;
            if (co.crash == CrashKind::CpuLimit ||
                co.crash == CrashKind::HardTimeout) {
                // A run that burned past its CPU/wall budget would burn
                // through it again: timed out, not retried.
                out.status = RunStatus::TimedOut;
                out.error = std::move(co.message);
                return true;
            }
            msg = std::move(co.message);
            return false;
        case ChildOutcome::Kind::Error:
            msg = std::move(co.message);
            return false;
        }
        return false;
    };

    // Shared retry policy: returns true when the run should be attempted
    // again, false once it has been settled as Quarantined or Failed.
    auto retryable = [&](RunOutcome &out, std::string &prev_error,
                         const std::string &msg) -> bool {
        out.error = msg;
        if (!prev_error.empty() && msg == prev_error) {
            // Same seed, same failure, twice: a deterministic bug, not
            // transient flakiness.
            out.status = RunStatus::Quarantined;
            return false;
        }
        prev_error = msg;
        if (out.attempts > opt.retries || expired()) {
            out.status = RunStatus::Failed;
            return false;
        }
        return true;
    };

    auto run_single = [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        RunOutcome &out = report.outcomes[i];

        // Thread-mode cancel poll: wire the campaign's flag into this
        // run's config so Simulator::run() can unwind mid-budget. Both
        // knobs are fingerprint-excluded, so journal keys are unchanged.
        // (Process mode skips this: the child's copy of the flag never
        // flips; the supervisor's SIGKILL handles cancellation there.)
        const Experiment *exp = &exps[i];
        Experiment wired;
        if (opt.isolate == IsolateMode::Thread && opt.cancel &&
            opt.cancelCheckCycles > 0) {
            wired = exps[i];
            wired.cfg.cancel = opt.cancel;
            wired.cfg.cancelCheckCycles = opt.cancelCheckCycles;
            exp = &wired;
        }

        if (auto it = replay.find(fps[i]); it != replay.end()) {
            out.status = RunStatus::Ok;
            out.result = it->second;
            out.fromJournal = true;
        } else if (expired()) {
            out.status = RunStatus::TimedOut;
            out.error = "not started: campaign cancelled or past its "
                        "soft timeout";
        } else {
            std::string prev_error;
            for (;;) {
                ++out.attempts;
                if (out.attempts > 1 && opt.backoffSeconds > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(retryBackoffSeconds(
                            out.attempts - 1, out.seed,
                            opt.backoffSeconds)));
                out.crash = CrashKind::None;
                std::string msg;
                bool settled = false;
                if (opt.isolate == IsolateMode::Process) {
                    ChildLimits lim;
                    lim.hardTimeoutSeconds = opt.hardTimeoutSeconds;
                    lim.cpuSeconds = opt.childCpuSeconds;
                    lim.memoryBytes = opt.childMemoryBytes;
                    lim.cancel = opt.cancel;
                    ChildOutcome co =
                        runInChild([&] { return run_one(*exp, i); }, lim);
                    settled = applyChild(std::move(co), i, out, msg);
                } else {
                    try {
                        out.result = run_one(*exp, i);
                        out.status = RunStatus::Ok;
                        out.error.clear();
                        if (journal)
                            journal->append(fps[i], out.result);
                        settled = true;
                    } catch (const LivelockError &err) {
                        // Deterministic by construction: the same seed
                        // spins through the same window. Never retried.
                        out.status = RunStatus::TimedOut;
                        out.error = err.what();
                        settled = true;
                    } catch (const CancelledError &err) {
                        // The run was healthy; the campaign was asked to
                        // stop. Timed out, never retried.
                        out.status = RunStatus::TimedOut;
                        out.error = err.what();
                        settled = true;
                    } catch (const std::exception &err) {
                        msg = err.what();
                    } catch (const SimError &err) {
                        msg = err.message;
                    }
                }
                if (settled)
                    break;
                if (!retryable(out, prev_error, msg))
                    break;
            }
        }

        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        notify(i, dt.count());
    };

    // Batched process isolation: consecutive submission-order slices of
    // runsPerChild runs share ONE forked child, which builds a Simulator
    // per run and frames each result over the pipe protocol
    // (runBatchInChild). A crash settles or
    // retries only the run it is attributed to; completed frames survive,
    // and the unstarted remainder is re-dispatched in a fresh child
    // without being charged an attempt.
    auto run_batch = [&](const std::vector<std::size_t> &members) {
        std::vector<std::size_t> pending;
        std::unordered_map<std::size_t, std::string> prev_errors;
        for (std::size_t i : members) {
            RunOutcome &out = report.outcomes[i];
            if (auto it = replay.find(fps[i]); it != replay.end()) {
                out.status = RunStatus::Ok;
                out.result = it->second;
                out.fromJournal = true;
                notify(i, 0.0);
            } else {
                pending.push_back(i);
            }
        }

        while (!pending.empty()) {
            if (expired()) {
                for (std::size_t i : pending) {
                    RunOutcome &out = report.outcomes[i];
                    if (out.attempts == 0) {
                        out.status = RunStatus::TimedOut;
                        out.error = "not started: campaign cancelled or "
                                    "past its soft timeout";
                    } else {
                        out.status = RunStatus::Failed;
                    }
                    notify(i, 0.0);
                }
                break;
            }

            // Back off before a retry child, keyed to the head retried
            // run so replays of the campaign sleep identically.
            {
                const RunOutcome &head = report.outcomes[pending.front()];
                if (head.attempts > 0 && opt.backoffSeconds > 0.0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(retryBackoffSeconds(
                            head.attempts, head.seed, opt.backoffSeconds)));
            }

            ChildLimits lim;
            // The supervisor scales the wall deadline by the batch size;
            // RLIMIT_CPU has no per-run re-arm, so scale it here.
            lim.hardTimeoutSeconds = opt.hardTimeoutSeconds;
            lim.cpuSeconds = opt.childCpuSeconds
                                 ? opt.childCpuSeconds * pending.size()
                                 : 0;
            lim.memoryBytes = opt.childMemoryBytes;
            lim.cancel = opt.cancel;

            auto t0 = std::chrono::steady_clock::now();
            const std::vector<std::size_t> snapshot = pending;
            ChildBatchOutcome bo = runBatchInChild(
                snapshot.size(),
                [&](std::size_t k) {
                    return run_one(exps[snapshot[k]], snapshot[k]);
                },
                lim);
            std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;

            // Attribute a death to the in-flight run; a child that died
            // without a started-but-unframed run (fork failure, death
            // between runs) charges the first unreported run so every
            // dispatch makes progress toward the retry bound.
            std::size_t attributed = ChildBatchOutcome::npos;
            if (bo.childDied && !bo.cancelled) {
                attributed = bo.inFlight;
                if (attributed == ChildBatchOutcome::npos)
                    for (std::size_t k = 0; k < snapshot.size(); ++k)
                        if (!bo.reported[k]) {
                            attributed = k;
                            break;
                        }
            }

            std::size_t processed = 0;
            for (std::size_t k = 0; k < snapshot.size(); ++k)
                if (bo.reported[k] || k == attributed)
                    ++processed;
            const double share =
                dt.count() / static_cast<double>(processed ? processed : 1);

            std::vector<std::size_t> next;
            for (std::size_t k = 0; k < snapshot.size(); ++k) {
                const std::size_t i = snapshot[k];
                RunOutcome &out = report.outcomes[i];
                if (!bo.reported[k] && k != attributed) {
                    // Unstarted (or torn past the crash point): not an
                    // attempt; re-dispatch. A cancelled batch drains on
                    // the next loop's expired() check.
                    next.push_back(i);
                    continue;
                }
                ++out.attempts;
                out.crash = CrashKind::None;
                ChildOutcome co;
                if (bo.reported[k]) {
                    co = std::move(bo.runs[k]);
                } else {
                    co.kind = ChildOutcome::Kind::Crash;
                    co.crash = bo.crash;
                    co.message = bo.crashMessage;
                }
                std::string msg;
                if (applyChild(std::move(co), i, out, msg)) {
                    notify(i, share);
                } else if (!retryable(out, prev_errors[i], msg)) {
                    notify(i, share);
                } else {
                    next.push_back(i);
                }
            }
            pending = std::move(next);
        }
    };

    if (opt.isolate == IsolateMode::Process && opt.runsPerChild > 1) {
        std::vector<std::vector<std::size_t>> batches;
        for (std::size_t i = 0; i < exps.size(); i += opt.runsPerChild) {
            std::vector<std::size_t> b;
            for (std::size_t j = i;
                 j < exps.size() && j < i + opt.runsPerChild; ++j)
                b.push_back(j);
            batches.push_back(std::move(b));
        }
        pool.forEach(batches.size(),
                     [&](std::size_t bi) { run_batch(batches[bi]); });
    } else {
        pool.forEach(exps.size(), [&](std::size_t i) { run_single(i); });
    }

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
