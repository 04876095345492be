/**
 * @file
 * Shared helpers for the figure/table bench harnesses: run a workload
 * type averaged over its Table-2 groups, the structure ordering of the
 * paper's figures, and single-thread IPC baselines for the fairness
 * metrics.
 */

#ifndef SMTAVF_BENCH_BENCH_UTIL_HH
#define SMTAVF_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/env.hh"
#include "base/table.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"

namespace smtavf::bench
{

/** The three workload types in figure order. */
inline const std::vector<MixType> &
mixTypes()
{
    static const std::vector<MixType> types = {MixType::Cpu, MixType::Mix,
                                               MixType::Mem};
    return types;
}

/** Per-structure AVF and performance averaged over a type's groups. */
struct TypeResult
{
    std::map<HwStruct, double> avf;
    double ipc = 0.0;
    std::vector<SimResult> runs;
};

/** Average a slice of finished runs into a TypeResult. */
inline TypeResult
averageRuns(std::vector<SimResult> runs)
{
    TypeResult out;
    out.runs = std::move(runs);
    for (auto s : AvfReport::figureStructs())
        out.avf[s] = meanAvf(out.runs, s);
    out.ipc = meanIpc(out.runs);
    return out;
}

/**
 * Run every Table-2 mix of (contexts, type) under @p policy and average.
 */
inline TypeResult
runType(unsigned contexts, MixType type, FetchPolicyKind policy,
        std::uint64_t budget = 0)
{
    std::vector<SimResult> runs;
    for (const auto &mix : mixesOf(contexts, type))
        runs.push_back(runMix(mix, policy, budget));
    return averageRuns(std::move(runs));
}

/**
 * A figure's worth of (contexts, type, policy) cells flattened into one
 * campaign so the pool sees every run at once. Each addCell() returns
 * the cell's index; after runAll(), cell(i) yields that cell's averaged
 * TypeResult in submission order.
 */
class FigureCampaign
{
  public:
    /** Queue every Table-2 mix of (contexts, type) under policy. */
    std::size_t
    addCell(unsigned contexts, MixType type, FetchPolicyKind policy,
            std::uint64_t budget = 0)
    {
        Slice s{exps_.size(), 0};
        for (const auto &mix : mixesOf(contexts, type)) {
            exps_.push_back(makeExperiment(mix, policy, budget));
            ++s.count;
        }
        slices_.push_back(s);
        return slices_.size() - 1;
    }

    /** Execute all queued cells on @p pool. */
    void
    runAll(CampaignRunner &pool)
    {
        results_ = pool.run(exps_);
    }

    /** Averaged result of cell @p i (after runAll()). */
    TypeResult
    cell(std::size_t i) const
    {
        const Slice &s = slices_.at(i);
        std::vector<SimResult> runs(results_.begin() + s.begin,
                                    results_.begin() + s.begin + s.count);
        return averageRuns(std::move(runs));
    }

    std::size_t experiments() const { return exps_.size(); }

  private:
    struct Slice
    {
        std::size_t begin;
        std::size_t count;
    };
    std::vector<Experiment> exps_;
    std::vector<Slice> slices_;
    std::vector<SimResult> results_;
};

/** Column header row for the paper's eight figure structures. */
inline std::vector<std::string>
structHeader(const std::string &first)
{
    std::vector<std::string> header = {first};
    for (auto s : AvfReport::figureStructs())
        header.push_back(hwStructName(s));
    return header;
}

/**
 * Stand-alone IPC of each benchmark at the default single-thread budget,
 * memoized (the fairness metrics normalize against these).
 */
inline double
singleThreadIpc(const std::string &benchmark)
{
    // Mutex: harnesses may ask for baselines from campaign workers.
    static std::mutex mutex;
    static std::map<std::string, double> cache;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(benchmark);
        if (it != cache.end())
            return it->second;
    }
    WorkloadMix solo{"st-" + benchmark, 1, MixType::Cpu, 'A', {benchmark}};
    auto r = runMix(solo, FetchPolicyKind::Icount, defaultBudget(1));
    std::lock_guard<std::mutex> lock(mutex);
    cache[benchmark] = r.ipc;
    return r.ipc;
}

/** Stand-alone IPCs for every thread of a finished run. */
inline std::vector<double>
singleThreadBaselines(const SimResult &r)
{
    std::vector<double> out;
    for (const auto &t : r.threads)
        out.push_back(singleThreadIpc(t.benchmark));
    return out;
}

/** Print the SMTAVF_SCALE banner every harness emits. */
inline void
banner(const char *what)
{
    std::printf("== %s ==\n", what);
    std::printf("(scale %llu; set SMTAVF_SCALE to grow the simulated "
                "instruction budgets)\n\n",
                static_cast<unsigned long long>(benchScale()));
}

/** Note how a campaign was parallelized (workers, runs, wall-clock). */
inline void
campaignNote(const CampaignRunner &pool, std::size_t runs, double seconds)
{
    std::printf("(campaign: %zu runs on %u workers in %.2fs; set "
                "SMTAVF_JOBS to change the pool)\n\n",
                runs, pool.jobs(), seconds);
}

} // namespace smtavf::bench

#endif // SMTAVF_BENCH_BENCH_UTIL_HH
