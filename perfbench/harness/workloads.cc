#include "workloads.hh"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "base/rng.hh"
#include "probes.hh"
#include "protect/explorer.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using namespace smtavf;

namespace
{

// ---- Inputs ---------------------------------------------------------------
// Every budget and worker count is explicit, so SMTAVF_SCALE and
// SMTAVF_JOBS cannot change the work.

/** run-cpu: per sweep point; long enough that construction is minor. */
constexpr std::uint64_t kRunCpuBudget = 200'000;
/** run-mem: per policy (IPC ~0.5, so far more cycles per instruction). */
constexpr std::uint64_t kRunMemBudget = 50'000;
/** campaign: short runs, so the per-run fixed cost is a large share. */
constexpr std::uint64_t kCampaignBudget = 2'000;
/** campaign: derived seeds per (mix, policy) pair. */
constexpr unsigned kCampaignSeeds = 10;
/** campaign-process: runs per forked child. */
constexpr unsigned kRunsPerChild = 8;
/** explore: measured window per evaluation, after the shared warmup.
 *  With 4000-instruction windows, construction and restore made the
 *  four workers' search swing by a quarter with the host's load; at
 *  16000 the search repeats within about a tenth. */
constexpr std::uint64_t kExploreBudget = 16'000;
constexpr std::uint64_t kExploreWarmup = 20'000;
/** explore: evaluations per search, which ends within its second
 *  generation. Every seed's search would make more (350 to 390 over the
 *  three generations), so the cap makes the work the same on every seed
 *  and keeps a pass near half a second. */
constexpr unsigned kExploreEvaluations = 48;
/** The short runs that probe a layer for a workload which does not
 *  exercise it itself: budget, warmup and derived seeds per point. */
constexpr std::uint64_t kProbeBudget = 20'000;
constexpr std::uint64_t kProbeWarmup = 20'000;
constexpr unsigned kProbeSeeds = 16;
/** Campaign runs (or explored points) re-simulated after each pass. */
constexpr std::size_t kResimPerPass = 4;

/** The paper's six fetch policies (Fig. 6), with metric-name suffixes. */
const std::pair<FetchPolicyKind, const char *> kPolicies[] = {
    {FetchPolicyKind::Icount, "icount"}, {FetchPolicyKind::Flush, "flush"},
    {FetchPolicyKind::Stall, "stall"},   {FetchPolicyKind::Dg, "dg"},
    {FetchPolicyKind::Pdg, "pdg"},       {FetchPolicyKind::DWarn, "dwarn"},
};
const char *const kContextNames[] = {"1ctx", "2ctx", "4ctx", "8ctx"};

Experiment
point(const WorkloadMix &mix, FetchPolicyKind policy, std::uint64_t seed,
      std::uint64_t budget)
{
    Experiment e = makeExperiment(mix, policy, budget);
    e.cfg.seed = seed;
    return e;
}

/** run-cpu: a 1-context solo run, then the CPU-bound group-A mixes at
 *  2, 4 and 8 contexts, all under ICOUNT. */
std::vector<Experiment>
contextSweep(std::uint64_t seed, std::uint64_t budget)
{
    const WorkloadMix solo{"1ctx-bzip2", 1, MixType::Cpu, 'A', {"bzip2"}};
    const WorkloadMix *mixes[] = {&solo, &findMix("2ctx-cpu-A"),
                                  &findMix("4ctx-cpu-A"),
                                  &findMix("8ctx-cpu-A")};
    std::vector<Experiment> pts;
    for (std::size_t i = 0; i < 4; ++i)
        pts.push_back(point(*mixes[i], FetchPolicyKind::Icount,
                            splitSeed(seed, i), budget));
    return pts;
}

/** run-mem: 4ctx-mem-A under each policy, on the same streams. */
std::vector<Experiment>
policySweep(std::uint64_t seed, std::uint64_t budget)
{
    std::vector<Experiment> pts;
    for (const auto &[policy, name] : kPolicies)
        pts.push_back(point(findMix("4ctx-mem-A"), policy,
                            splitSeed(seed, 0), budget));
    return pts;
}

/** campaign: every 2-context mix x the six policies x derived seeds. */
std::vector<Experiment>
campaignList(std::uint64_t seed)
{
    std::vector<Experiment> exps;
    for (const auto &mix : mixesWithContexts(2))
        for (const auto &[policy, name] : kPolicies)
            for (unsigned k = 0; k < kCampaignSeeds; ++k) {
                Experiment e = makeExperiment(mix, policy, kCampaignBudget);
                e.label += '/';
                e.label += std::to_string(k);
                exps.push_back(std::move(e));
            }
    deriveSeeds(exps, seed);
    return exps;
}

/** explore: the paper's 4-context headline configuration. */
Experiment
exploreBase(std::uint64_t seed)
{
    Experiment e = point(findMix("4ctx-mix-A"), FetchPolicyKind::Icount,
                         seed, kExploreBudget);
    e.warmup = kExploreWarmup;
    return e;
}

BeamOptions
beamOptions(const std::string &journal)
{
    BeamOptions bo;
    bo.beamWidth = 8;
    bo.generations = 3;
    bo.maxStructures = 6;
    bo.evalBudget = kExploreEvaluations;
    bo.warmup = kExploreWarmup;
    bo.sharedWarmup = true;
    bo.journalPath = journal;
    return bo;
}

/** The Experiment the explorer evaluated for point @p k. */
Experiment
pointExperiment(const Experiment &base, const ExplorationResult &res,
                std::size_t k)
{
    Experiment e = base;
    e.cfg.protection = res.points[k].protection;
    e.label = base.mix.name + "/" + res.points[k].label;
    return e;
}

// ---- Passes -----------------------------------------------------------------

std::vector<std::string>
recordsOf(const std::vector<Experiment> &exps,
          const std::vector<SimResult> &results)
{
    std::vector<std::string> recs;
    for (std::size_t i = 0; i < exps.size(); ++i)
        recs.push_back(runRecord(exps[i], results[i]));
    return recs;
}

std::string
digestOf(const std::vector<std::string> &records)
{
    std::uint64_t h = fnv1a("");
    for (const auto &r : records)
        h = fnv1a(r + "\n", h);
    return hex16(h);
}

/**
 * One timed unit of a pass: a sweep point's Simulator::run(), or a
 * whole runTolerant or exploreBeam call.
 */
struct Unit
{
    double setup = 0.0;     ///< wall seconds of its set-up
    double wall = 0.0;      ///< wall seconds of the timed call
    double cpu = 0.0;       ///< thread-CPU seconds of the timed call
    double committed = 0.0; ///< simulated instructions it committed
};

/** What one pass measured and checked. */
struct PassOut
{
    std::vector<Unit> units;
    double runs = 0.0; ///< runs (or evaluations) the pass completed
    /** Digest of the pass's output: every pass must repeat it. */
    std::string digest;
    /** Attempted operations and failed checks. */
    Report check;
    /** Peak RSS of the process that ran the pass (from wait4). */
    double rss = 0.0;
    /** Largest process the pass itself forked (campaign-process). */
    double childRss = 0.0;

    double
    setup() const
    {
        double s = 0.0;
        for (const Unit &u : units)
            s += u.setup;
        return s;
    }

    double
    work() const
    {
        double s = 0.0;
        for (const Unit &u : units)
            s += u.wall;
        return s;
    }
};

using PassFn = std::function<PassOut(std::size_t pass)>;

/**
 * Keeps the calling thread, and the threads and processes it starts, on
 * the last CPU of its allowed set while it lives. A single-thread pass
 * that the scheduler moves between CPUs leaves its caches behind and
 * meets each CPU's share of other tenants' load; on one CPU, the pass and
 * the yardstick beside it meet the same.
 */
class OneCpu
{
  public:
    OneCpu()
    {
        if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
            throw std::runtime_error("sched_getaffinity failed");
        int last = -1;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                last = c;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(last, &one);
        if (::sched_setaffinity(0, sizeof(one), &one) != 0)
            throw std::runtime_error("sched_setaffinity failed");
    }
    ~OneCpu() { ::sched_setaffinity(0, sizeof(saved_), &saved_); }
    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

  private:
    cpu_set_t saved_{};
};

std::string
encode(const PassOut &o)
{
    std::ostringstream os;
    os.precision(17);
    os << "runs " << o.runs << "\nattempted " << o.check.attempted
       << "\nchild_rss " << o.childRss << "\ndigest " << o.digest << '\n';
    for (const Unit &u : o.units)
        os << "unit " << u.setup << ' ' << u.wall << ' ' << u.cpu << ' '
           << u.committed << '\n';
    for (std::string e : o.check.errors) {
        for (char &c : e)
            if (c == '\n')
                c = ' ';
        os << "error " << e << '\n';
    }
    return os.str();
}

PassOut
decode(const std::string &text)
{
    PassOut o;
    std::istringstream is(text);
    std::string key;
    while (is >> key) {
        if (key == "error") {
            std::string e;
            std::getline(is, e);
            o.check.fail(e.substr(1));
        } else if (key == "digest") {
            is >> o.digest;
        } else if (key == "unit") {
            Unit u;
            is >> u.setup >> u.wall >> u.cpu >> u.committed;
            o.units.push_back(u);
        } else {
            double v = 0;
            is >> v;
            if (key == "runs")
                o.runs = v;
            else if (key == "attempted")
                o.check.attempted = static_cast<std::uint64_t>(v);
            else if (key == "child_rss")
                o.childRss = v;
        }
    }
    return o;
}

/**
 * Run one pass in a fresh forked process, as one CLI invocation runs
 * one campaign: its peak RSS (from wait4) is the pass's alone, not the
 * residue of earlier passes' allocations. The caller holds no threads.
 */
PassOut
forkedPass(const std::function<PassOut()> &fn)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL); // never outlive the harness
        ::close(fds[0]);
        std::string msg;
        int code = 0;
        try {
            msg = encode(fn());
        } catch (const std::exception &e) {
            msg = std::string("error pass threw: ") + e.what() + "\n";
            code = 1;
        } catch (const SimError &e) {
            msg = "error pass failed: " + e.message + "\n";
            code = 1;
        }
        for (std::size_t off = 0; off < msg.size();) {
            const ssize_t n = ::write(fds[1], msg.data() + off,
                                      msg.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            off += static_cast<std::size_t>(n);
        }
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    rusage ru{};
    while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    PassOut o = decode(text);
    o.rss = ru.ru_maxrss / 1024.0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        o.check.fail("pass process ended with status " +
                     std::to_string(status));
    return o;
}

/** Wall seconds the host yardstick takes on the reference host, about
 *  what it takes on the shared 4-vCPU Xeon VM of README.md's baseline. */
constexpr double kYardstickRefS = 0.035;

/**
 * End-to-end values over a run's passes. The shared host's speed swings
 * by a fifth to two fifths for minutes at a time, longer than a run, so
 * no statistic of one run's raw pass times repeats from run to run. Each
 * pass therefore runs between two runs of the host yardstick
 * (hostYardstick, on as many threads as the pass keeps busy), and times
 * are scaled by kYardstickRefS over a yardstick time: they are stated in
 * seconds of a reference host. Which statistic repeats best differs with
 * the pass (measured over runs of six to eight seeds on the baseline's
 * host):
 *
 * - a sweep pass is a row of short single-thread units on one pinned CPU:
 *   each unit's least time over the passes, scaled by the run's least
 *   yardstick, is the figure the host's bursts touch least;
 * - a pool pass is one unit on all the workers' CPUs, which no single
 *   quiet moment covers: the median over the passes, each scaled by the
 *   mean of the yardsticks just before and after it.
 *
 * Set-up time is the median pass, scaled per pass; memory is not scaled.
 */
struct PassTimes
{
    /** Per pass that reported units: its units, unscaled. */
    std::vector<std::vector<Unit>> passes;
    /** Per such pass: mean yardstick seconds around it, whole pass. */
    std::vector<double> yardS, wholeS;
    /** Per pass: peak RSS of its process and of its largest child. */
    std::vector<double> rss, childRss;
    double runs = 0.0;

    /** Adds @p o, run between yardsticks of @p before and @p after s. */
    void
    add(const PassOut &o, double before, double after)
    {
        rss.push_back(o.rss);
        childRss.push_back(o.childRss);
        // A pass that failed reported no units; its error is counted.
        if (o.units.empty() ||
            (!passes.empty() && o.units.size() != passes[0].size()))
            return;
        passes.push_back(o.units);
        yardS.push_back(0.5 * (before + after));
        wholeS.push_back(o.setup() + o.work());
        runs = o.runs;
    }

    bool empty() const { return passes.empty(); }
    std::size_t units() const { return empty() ? 0 : passes[0].size(); }

    /** Median over the passes of @p field, summed over the pass's units
     *  and scaled by the pass's yardstick. */
    double
    medianScaled(double Unit::*field) const
    {
        std::vector<double> v;
        for (std::size_t k = 0; k < passes.size(); ++k) {
            double s = 0.0;
            for (const Unit &u : passes[k])
                s += u.*field;
            v.push_back(s * kYardstickRefS / yardS[k]);
        }
        return median(v);
    }

    /** Unit @p i's least @p field over the passes, scaled by the run's
     *  least yardstick. */
    double
    leastScaled(std::size_t i, double Unit::*field) const
    {
        double least = passes[0][i].*field;
        for (const std::vector<Unit> &p : passes)
            least = std::min(least, p[i].*field);
        return least * kYardstickRefS /
               *std::min_element(yardS.begin(), yardS.end());
    }

    /** @p field of one pass's timed work: a sweep's (@p pool false) sum
     *  of least units, or a pool's median pass. */
    double
    work(bool pool, double Unit::*field = &Unit::wall) const
    {
        if (pool)
            return medianScaled(field);
        double s = 0.0;
        for (std::size_t i = 0; i < units(); ++i)
            s += leastScaled(i, field);
        return s;
    }

    /** Simulated instructions unit @p i commits (the same every pass). */
    double committed(std::size_t i) const { return passes[0][i].committed; }

    /** Median whole pass, set-up included and unscaled, for the traced
     *  run's overhead. */
    double wholePass() const { return median(wholeS); }

    /**
     * The workload's one timed measurement, stated as each end-to-end
     * metric (every workload prints every one). Sweeps (@p pool_jobs 0):
     * sim_ips divides by the thread CPU of run(). Pool workloads: by the
     * worker-seconds (wall x workers) of runTolerant or exploreBeam, so
     * there it restates runs_per_s in instructions.
     */
    void
    report(Report &r, unsigned pool_jobs) const
    {
        if (empty())
            return; // every pass failed: the metrics stay missing
        const bool pool = pool_jobs != 0;
        double committed_all = 0.0;
        for (std::size_t i = 0; i < units(); ++i)
            committed_all += committed(i);
        r.e2e["sim_ips"] = pool ? committed_all / (work(pool) * pool_jobs)
                                : committed_all / work(pool, &Unit::cpu);
        r.e2e["runs_per_s"] = runs / work(pool);
        r.e2e["explore_s"] = work(pool);
        r.e2e["setup_s"] = medianScaled(&Unit::setup);
        r.e2e["peak_rss_mb"] = median(rss);
        r.info["child_peak_rss_mb"] = median(childRss);
        r.info["passes"] = static_cast<double>(passes.size());
        r.info["yardstick_ms"] = median(yardS) * 1e3;
    }
};

/**
 * Closed-loop passes, each in a freshly forked process, until @p seconds
 * have elapsed (at least one), with the host yardstick on @p threads
 * threads before the first pass and after each one (see PassTimes).
 * Every pass must repeat the digest kept under @p digest_name: the first
 * pass's, or an earlier loop's.
 */
PassTimes
passLoop(const PassFn &fn, double seconds, const std::string &digest_name,
         Report &report, unsigned threads = 1)
{
    PassTimes t;
    const double deadline = wallNow() + seconds;
    std::size_t pass = 0;
    double before = hostYardstick(threads);
    do {
        const PassOut o = forkedPass([&] { return fn(pass); });
        const double after = hostYardstick(threads);
        report.attempted += o.check.attempted;
        for (const auto &e : o.check.errors)
            report.fail(e);
        const auto [it, first] = report.digests.emplace(digest_name, o.digest);
        if (!first && o.digest != it->second)
            report.fail("pass " + std::to_string(pass) + " output digest " +
                        o.digest + " differs from " + it->second);
        t.add(o, before, after);
        before = after;
        ++pass;
    } while (wallNow() < deadline);
    return t;
}

/** Fails @p report unless @p results repeat the untraced passes' records. */
void
checkRecords(const std::vector<Experiment> &exps,
             const std::vector<SimResult> &results, const std::string &what,
             Report &report)
{
    if (digestOf(recordsOf(exps, results)) != report.digests["records"])
        report.fail(what + " differs from the untraced passes' records");
}

/** One sweep pass: construct and run each point, each one a unit. */
PassOut
sweepPass(const std::vector<Experiment> &pts)
{
    PassOut o;
    std::vector<std::string> records;
    for (const Experiment &e : pts) {
        Unit u;
        const double t0 = wallNow();
        Simulator sim(e.cfg, e.mix);
        const double t1 = wallNow();
        const double c0 = threadCpuNow();
        const SimResult r = sim.run(e.budget);
        u.cpu = threadCpuNow() - c0;
        u.wall = wallNow() - t1;
        u.setup = t1 - t0;
        u.committed = static_cast<double>(r.totalCommitted);
        o.units.push_back(u);
        records.push_back(runRecord(e, r));
    }
    o.runs = static_cast<double>(pts.size());
    o.check.attempted = pts.size();
    o.digest = digestOf(records);
    return o;
}

/** Per-run wall times, CPU use and results of one campaign. */
struct CampaignRun
{
    std::vector<Experiment> exps;
    CampaignReport report;
    double setup = 0.0, wall = 0.0, cpu = 0.0;
    std::vector<double> runMs;
};

/**
 * One campaign: set-up (worker pool and experiment list), then
 * runTolerant with a fresh journal. CPU counts every thread and every
 * reaped child. Progress callbacks record one span per run.
 */
CampaignRun
campaignRun(const Options &opt,
            const std::function<std::vector<Experiment>()> &make_list,
            const CampaignOptions &co, Trace &trace, std::int64_t pass)
{
    CampaignRun run;
    const double t0 = wallNow();
    auto pool = std::make_unique<CampaignRunner>(opt.jobs);
    run.exps = make_list();
    run.setup = wallNow() - t0;

    if (!co.journalPath.empty())
        std::remove(co.journalPath.c_str());
    const double cpu0 = processCpuNow() + childrenCpuNow();
    Span span(trace, "campaign.run_tolerant", pass);
    auto progress = [&](const CampaignProgress &p) {
        const double now = wallNow();
        run.runMs.push_back(p.seconds * 1e3);
        trace.add("campaign.run", now - p.seconds, now, span.id(),
                  static_cast<std::int64_t>(p.index));
    };
    run.report = runTolerant(*pool, run.exps, co, progress);
    run.wall = span.stop();
    run.cpu = processCpuNow() + childrenCpuNow() - cpu0;
    return run;
}

std::vector<SimResult>
okResults(const CampaignRun &run, Report &report)
{
    std::vector<SimResult> out;
    for (const RunOutcome &o : run.report.outcomes) {
        if (o.status != RunStatus::Ok)
            report.fail("campaign run " + o.label + " ended " +
                        runStatusName(o.status) + ": " + o.error);
        out.push_back(o.result);
    }
    return out;
}

/** One campaign pass, then a fresh-Simulator re-simulation sample. */
PassOut
campaignPass(const Options &opt, const CampaignOptions &co, std::size_t pass)
{
    Trace quiet(false);
    CampaignRun run = campaignRun(
        opt, [&] { return campaignList(opt.seed); }, co, quiet, -1);
    PassOut o;
    Unit u;
    u.setup = run.setup;
    u.wall = run.wall;
    u.cpu = run.cpu;
    const std::vector<SimResult> results = okResults(run, o.check);
    for (const SimResult &r : results)
        u.committed += static_cast<double>(r.totalCommitted);
    o.units.push_back(u);
    o.runs = static_cast<double>(run.exps.size());
    o.check.attempted = run.exps.size();
    const std::vector<std::string> records = recordsOf(run.exps, results);
    o.digest = digestOf(records);
    o.childRss = childPeakRssMb();

    for (std::size_t j = 0; j < kResimPerPass; ++j) {
        const std::size_t i = splitSeed(opt.seed + pass, j) % records.size();
        if (runRecord(run.exps[i], runExperiment(run.exps[i])) != records[i])
            o.check.fail("fresh re-simulation of " + run.exps[i].label +
                         " differs from the campaign's record");
    }
    return o;
}

/**
 * One beam search, then re-simulation of sampled points. The search's
 * result goes to @p out when given.
 */
PassOut
explorePass(const Options &opt, const BeamOptions &bo, std::size_t pass,
            Trace &trace, ExplorationResult *out = nullptr)
{
    const Experiment base = exploreBase(opt.seed);
    PassOut o;
    Unit u;
    const double t0 = wallNow();
    auto explorer =
        std::make_unique<ProtectionExplorer>(base.cfg, base.mix, base.budget);
    auto pool = std::make_unique<CampaignRunner>(opt.jobs);
    u.setup = wallNow() - t0;

    std::remove(bo.journalPath.c_str());
    const std::uint64_t sim0 = simulatedInstructionCounter().load();
    const double cpu0 = processCpuNow();
    Span span(trace, "protect.explore_beam", -1);
    ExplorationResult res = explorer->exploreBeam(*pool, bo);
    u.wall = span.stop();
    u.cpu = processCpuNow() - cpu0;
    u.committed =
        static_cast<double>(simulatedInstructionCounter().load() - sim0);
    o.units.push_back(u);
    o.runs = static_cast<double>(res.points.size());
    o.check.attempted = res.points.size();
    o.digest = hex16(fnv1a(res.csv()));

    // Each sampled point again with its own warmup (no shared
    // checkpoint) must match the explorer's journal record.
    const auto journal = loadJournal(bo.journalPath);
    for (std::size_t j = 0; j < kResimPerPass / 2; ++j) {
        const std::size_t k =
            splitSeed(opt.seed + pass, j) % res.points.size();
        const Experiment e = pointExperiment(base, res, k);
        const std::uint64_t fp = experimentFingerprint(e);
        auto it = journal.find(fp);
        if (it == journal.end() ||
            serializeRun(fp, runExperiment(e)) !=
                serializeRun(fp, it->second))
            o.check.fail("fresh re-simulation of " + e.label +
                         " differs from the explorer's record");
    }
    if (out)
        *out = std::move(res);
    return o;
}

// ---- Traced-run helpers -------------------------------------------------------

void
campaignLayers(const CampaignRun &run, unsigned jobs, Report &report)
{
    report.dists["campaign.run_ms"] = run.runMs;
    report.layers["campaign.cpu_util"] = run.cpu / (run.wall * jobs);
    report.layers["campaign.cpu_ms_per_run"] =
        run.cpu * 1e3 / static_cast<double>(run.exps.size());
}

/**
 * campaign.reuse_speedup: @p reuse_runs_per_s (measured with worker
 * reuse) over runs/s of the same campaign without reuse.
 */
void
reuseSpeedup(const Options &opt,
             const std::function<std::vector<Experiment>()> &make_list,
             CampaignOptions co, double reuse_runs_per_s, Report &report)
{
    Trace quiet(false);
    co.reuseWorkers = false;
    const CampaignRun run = campaignRun(opt, make_list, co, quiet, -1);
    okResults(run, report);
    report.layers["campaign.reuse_speedup"] =
        reuse_runs_per_s / (static_cast<double>(run.exps.size()) / run.wall);
}

/** A short campaign of @p pts with derived seeds, for campaign.*. */
void
probeCampaign(const Options &opt, const std::vector<Experiment> &pts,
              Trace &trace, Report &report)
{
    auto make = [&] {
        std::vector<Experiment> exps;
        for (unsigned k = 0; k < kProbeSeeds; ++k)
            for (const Experiment &p : pts) {
                Experiment e = p;
                e.budget = kProbeBudget;
                exps.push_back(std::move(e));
            }
        deriveSeeds(exps, opt.seed);
        return exps;
    };
    CampaignOptions co;
    co.journalPath = opt.scratch + "/probe-campaign.journal";
    CampaignRun run = campaignRun(opt, make, co, trace, -1);
    okResults(run, report);
    campaignLayers(run, opt.jobs, report);
    reuseSpeedup(opt, make, co,
                 static_cast<double>(run.exps.size()) / run.wall, report);
    std::remove(co.journalPath.c_str());
}

/** A small beam search on @p rep, for protect.*. */
void
probeBeam(const Options &opt, const Experiment &rep, Trace &trace,
          Report &report)
{
    ProtectionExplorer explorer(rep.cfg, rep.mix, kProbeBudget);
    CampaignRunner pool(opt.jobs);
    BeamOptions bo;
    bo.beamWidth = 2;
    bo.generations = 1;
    bo.maxStructures = 3;
    bo.warmup = kProbeWarmup;
    bo.sharedWarmup = true;
    Span span(trace, "protect.explore_beam", -1);
    protectLayers(explorer.exploreBeam(pool, bo), report);
}

/** sim_ips of short untraced runs, one metric per point. */
void
probeIps(const std::vector<Experiment> &pts, const std::string &prefix,
         const std::vector<std::string> &names, Trace &trace, Report &report)
{
    for (std::size_t i = 0; i < pts.size(); ++i) {
        Span span(trace, "core.probe_run", static_cast<std::int64_t>(i));
        report.layers[prefix + names[i]] = runIps(pts[i]);
    }
}

std::vector<std::string>
contextNames()
{
    return {std::begin(kContextNames), std::end(kContextNames)};
}

std::vector<std::string>
policyNames()
{
    std::vector<std::string> names;
    for (const auto &[policy, name] : kPolicies)
        names.push_back(name);
    return names;
}

/** Probe runs of both sweeps, for workloads that run neither. */
void
probeSweeps(const Options &opt, Trace &trace, Report &report)
{
    probeIps(contextSweep(opt.seed, kProbeBudget), "core.sim_ips.",
             contextNames(), trace, report);
    probeIps(policySweep(opt.seed, kProbeBudget), "policy.sim_ips.",
             policyNames(), trace, report);
}

/**
 * The probes every traced workload runs on its own inputs. The isolate
 * probe forks, so they run before any campaign grows this process's
 * heap: the children then cost what the library's do, not what the
 * benchmark kept.
 */
void
commonProbes(const Options &opt, const LayerInputs &in,
             std::uint64_t warmup, Trace &trace, Report &report)
{
    streamProbe(in, trace, report);
    journalProbe(opt, in, trace, report);
    isolateProbe(in, trace, report);
    ckptProbe(in, warmup, trace, report);
}

void
reportOverhead(double traced_s, double untraced_s, Report &report)
{
    report.layers["trace.overhead_pct"] =
        (traced_s / untraced_s - 1.0) * 100.0;
}

// ---- Workloads ----------------------------------------------------------------

void
sweepWorkload(const Options &opt, bool contexts, Trace &trace,
              Report &report)
{
    const std::vector<Experiment> pts =
        contexts ? contextSweep(opt.seed, kRunCpuBudget)
                 : policySweep(opt.seed, kRunMemBudget);
    const PassTimes t = [&] {
        const OneCpu pin;
        return passLoop([&](std::size_t) { return sweepPass(pts); },
                        opt.trace ? opt.seconds / 2 : opt.seconds, "records",
                        report);
    }();
    for (std::size_t i = 0; i < t.units(); ++i) {
        report.info["construct_ms." + pts[i].label] =
            t.leastScaled(i, &Unit::setup) * 1e3;
        report.info["run_ms." + pts[i].label] =
            t.leastScaled(i, &Unit::wall) * 1e3;
    }
    if (!opt.trace || t.empty()) {
        t.report(report, 0);
        return;
    }

    // The references of the stepped replay: every point's run(), once
    // more in this process, checked against the untraced passes.
    LayerInputs in;
    in.stepped = pts;
    for (const Experiment &e : pts)
        in.steppedRef.push_back(runExperiment(e));
    checkRecords(pts, in.steppedRef, "in-process run of the sweep", report);
    in.runs = pts;
    in.results = in.steppedRef;
    in.rep = contexts ? pts[2] : pts[0]; // the 4-context ICOUNT point
    reportOverhead(steppedProbe(in, trace, report), t.wholePass(), report);

    // One sim_ips per point of this sweep (its least scaled CPU time over
    // the untraced passes); the other sweep's points run as short probes.
    const std::vector<std::string> own =
        contexts ? contextNames() : policyNames();
    const std::string prefix = contexts ? "core.sim_ips." : "policy.sim_ips.";
    for (std::size_t i = 0; i < pts.size(); ++i)
        report.layers[prefix + own[i]] =
            t.committed(i) / t.leastScaled(i, &Unit::cpu);
    if (contexts)
        probeIps(policySweep(opt.seed, kProbeBudget), "policy.sim_ips.",
                 policyNames(), trace, report);
    else
        probeIps(contextSweep(opt.seed, kProbeBudget), "core.sim_ips.",
                 contextNames(), trace, report);

    commonProbes(opt, in, kProbeWarmup, trace, report);
    probeCampaign(opt, pts, trace, report);
    probeBeam(opt, in.rep, trace, report);
}

void
campaignWorkload(const Options &opt, bool process, Trace &trace,
                 Report &report)
{
    CampaignOptions co;
    co.journalPath = opt.scratch + "/campaign.journal";
    co.reuseWorkers = true;
    co.isolate = process ? IsolateMode::Process : IsolateMode::Thread;
    co.runsPerChild = process ? kRunsPerChild : 1;
    auto passes = [&](const CampaignOptions &c, double seconds) {
        return passLoop(
            [&](std::size_t pass) { return campaignPass(opt, c, pass); },
            seconds, "records", report, opt.jobs);
    };
    if (!opt.trace) {
        passes(co, opt.seconds).report(report, opt.jobs);
        return;
    }

    // The untraced half: passes with worker reuse, then without.
    const PassTimes t = passes(co, opt.seconds / 4);
    CampaignOptions no_reuse = co;
    no_reuse.reuseWorkers = false;
    const PassTimes t_off = passes(no_reuse, opt.seconds / 4);
    if (t.empty() || t_off.empty())
        return;
    report.layers["campaign.reuse_speedup"] =
        t_off.work(true) / t.work(true);

    // One run per mix and policy, once more in this process: the stepped
    // replay's references and the records the journal and isolate probes
    // ship. Few runs, so this process stays small for the isolate probe's
    // forks; the traced campaign below is checked in full.
    const std::vector<Experiment> exps = campaignList(opt.seed);
    LayerInputs in;
    for (std::size_t i = 0; i < exps.size(); i += kCampaignSeeds) {
        in.stepped.push_back(exps[i]);
        in.steppedRef.push_back(runExperiment(exps[i]));
    }
    in.runs = in.stepped;
    in.results = in.steppedRef;
    in.rep = exps.front();
    steppedProbe(in, trace, report);
    commonProbes(opt, in, kProbeWarmup, trace, report);

    CampaignRun traced = campaignRun(
        opt, [&] { return campaignList(opt.seed); }, co, trace, 0);
    checkRecords(traced.exps, okResults(traced, report), "traced campaign",
                 report);
    reportOverhead(traced.setup + traced.wall, t.wholePass(), report);
    campaignLayers(traced, opt.jobs, report);
    probeSweeps(opt, trace, report);
    probeBeam(opt, in.rep, trace, report);
}

void
exploreWorkload(const Options &opt, Trace &trace, Report &report)
{
    const Experiment base = exploreBase(opt.seed);
    const BeamOptions bo = beamOptions(opt.scratch + "/explore.journal");
    Trace quiet(false);
    const PassTimes t = passLoop(
        [&](std::size_t pass) { return explorePass(opt, bo, pass, quiet); },
        opt.trace ? opt.seconds / 2 : opt.seconds, "explore_csv", report,
        opt.jobs);
    if (!opt.trace || t.empty()) {
        t.report(report, opt.jobs);
        return;
    }

    ExplorationResult explored;
    const PassOut traced = explorePass(opt, bo, 0, trace, &explored);
    for (const auto &e : traced.check.errors)
        report.fail(e);
    if (traced.units.empty())
        return;
    reportOverhead(traced.setup() + traced.work(), t.wholePass(), report);
    if (traced.digest != report.digests["explore_csv"])
        report.fail("traced exploration differs from the untraced one");
    protectLayers(explored, report);
    report.layers["campaign.cpu_util"] =
        traced.units[0].cpu / (traced.work() * opt.jobs);
    report.layers["campaign.cpu_ms_per_run"] =
        traced.units[0].cpu * 1e3 / traced.runs;

    // Step the first evaluated points from the shared warmup checkpoint.
    Checkpoint warm;
    {
        Simulator sim(base.cfg, base.mix);
        warm = sim.captureWarmupCheckpoint(kExploreWarmup);
    }
    LayerInputs in;
    in.warmup = &warm;
    const std::size_t n = std::min<std::size_t>(8, explored.points.size());
    for (std::size_t k = 0; k < n; ++k) {
        Experiment e = pointExperiment(base, explored, k);
        Simulator sim(e.cfg, e.mix);
        sim.restore(warm);
        in.steppedRef.push_back(sim.run(e.budget));
        in.stepped.push_back(std::move(e));
    }
    in.runs = in.stepped;
    in.results = in.steppedRef;
    in.rep = base;
    steppedProbe(in, trace, report);
    commonProbes(opt, in, kExploreWarmup, trace, report);

    // campaign.run_ms: the evaluated points as a shared-warmup campaign.
    auto make = [&] {
        std::vector<Experiment> exps;
        for (std::size_t k = 0; k < explored.points.size(); ++k)
            exps.push_back(pointExperiment(base, explored, k));
        return exps;
    };
    CampaignOptions co;
    co.sharedWarmup = true;
    co.warmupCheckpoint = &warm;
    CampaignRun run = campaignRun(opt, make, co, trace, -1);
    okResults(run, report);
    report.dists["campaign.run_ms"] = run.runMs;
    reuseSpeedup(opt, make, co,
                 static_cast<double>(run.exps.size()) / run.wall, report);

    probeSweeps(opt, trace, report);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "run-cpu", "run-mem", "campaign", "campaign-process", "explore"};
    return names;
}

void
runWorkload(const Options &opt, Trace &trace, Report &report)
{
    report.info["jobs"] = opt.jobs;
    if (opt.workload == "run-cpu")
        sweepWorkload(opt, true, trace, report);
    else if (opt.workload == "run-mem")
        sweepWorkload(opt, false, trace, report);
    else if (opt.workload == "campaign")
        campaignWorkload(opt, false, trace, report);
    else if (opt.workload == "campaign-process")
        campaignWorkload(opt, true, trace, report);
    else if (opt.workload == "explore")
        exploreWorkload(opt, trace, report);
    else
        throw std::invalid_argument("unknown workload " + opt.workload);
}

} // namespace perfbench
