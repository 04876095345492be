#include "metrics/metrics.hh"

#include "base/logging.hh"

namespace smtavf
{

double
SimResult::mitf(HwStruct s) const
{
    double a = avf.avf(s);
    return a > 0.0 ? ipc / a : 0.0;
}

double
weightedSpeedup(const SimResult &smt, const std::vector<double> &st_ipc)
{
    if (st_ipc.size() != smt.threads.size())
        SMTAVF_FATAL("weightedSpeedup: ", st_ipc.size(),
                     " baselines for ", smt.threads.size(), " threads");
    double sum = 0.0;
    for (std::size_t i = 0; i < st_ipc.size(); ++i) {
        if (st_ipc[i] <= 0.0)
            SMTAVF_FATAL("weightedSpeedup: non-positive baseline IPC");
        sum += smt.threads[i].ipc / st_ipc[i];
    }
    return sum;
}

double
harmonicWeightedIpc(const SimResult &smt, const std::vector<double> &st_ipc)
{
    if (st_ipc.size() != smt.threads.size())
        SMTAVF_FATAL("harmonicWeightedIpc: baseline count mismatch");
    double denom = 0.0;
    for (std::size_t i = 0; i < st_ipc.size(); ++i) {
        double w = smt.threads[i].ipc / st_ipc[i];
        if (w <= 0.0)
            return 0.0;
        denom += 1.0 / w;
    }
    return static_cast<double>(st_ipc.size()) / denom;
}

} // namespace smtavf
