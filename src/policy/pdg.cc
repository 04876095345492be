#include "policy/pdg.hh"

#include "base/logging.hh"

namespace smtavf
{

PdgPolicy::PdgPolicy(PolicyContext &ctx, unsigned threshold,
                     std::uint32_t table_entries)
    : FetchPolicy(ctx), threshold_(threshold),
      table_(table_entries, 1) // weakly no-miss
{
    if (table_entries == 0 || (table_entries & (table_entries - 1)) != 0)
        SMTAVF_FATAL("PDG table size must be a power of two");
}

std::uint32_t
PdgPolicy::tableIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) &
           (static_cast<std::uint32_t>(table_.size()) - 1);
}

const std::vector<ThreadId> &
PdgPolicy::fetchOrder(Cycle now)
{
    (void)now;
    const auto &order = icountOrder();
    order_.clear();
    for (ThreadId tid : order) {
        unsigned pressure = predicted_[tid] + ctx_.outstandingL1D(tid);
        if (pressure < threshold_)
            order_.push_back(tid);
    }
    if (order_.empty())
        return order;
    return order_;
}

void
PdgPolicy::dropPrediction(DynInstr &load)
{
    if (load.predictedMiss) {
        load.predictedMiss = false;
        --predicted_[load.tid];
    }
}

void
PdgPolicy::onFetch(DynInstr &in)
{
    if (in.op != OpClass::Load)
        return;
    in.predictedMiss = table_[tableIndex(in.pc)] >= 2;
    if (in.predictedMiss)
        ++predicted_[in.tid];
}

void
PdgPolicy::onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l2_miss;
    // Train the miss predictor with the actual outcome.
    auto &ctr = table_[tableIndex(load.pc)];
    if (l1_miss) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }

    // A predicted-miss load that actually hit stops counting right away;
    // predicted-miss loads that really missed keep counting via
    // outstandingL1D, so drop the prediction either way.
    dropPrediction(load);
}

void
PdgPolicy::onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l1_miss;
    (void)l2_miss;
    dropPrediction(load); // still set only when squashed before issue
}

} // namespace smtavf
