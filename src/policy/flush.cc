#include "policy/flush.hh"

namespace smtavf
{

FlushPolicy::FlushPolicy(PolicyContext &ctx)
    : FetchPolicy(ctx)
{
}

const std::vector<ThreadId> &
FlushPolicy::fetchOrder(Cycle now)
{
    (void)now;
    order_.clear();
    for (ThreadId tid : icountOrder())
        if (!gates_[tid].active)
            order_.push_back(tid);
    return order_;
}

void
FlushPolicy::onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l1_miss;
    if (!l2_miss)
        return;
    auto &gate = gates_[load.tid];
    if (gate.active)
        return; // already flushed for an older miss
    gate.active = true;
    gate.loadSeq = load.seq;
    ++flushes_;
    // Squash everything after the offending load and rewind fetch.
    ctx_.flushAfter(load.tid, load.seq);
}

void
FlushPolicy::onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l1_miss;
    (void)l2_miss;
    auto &gate = gates_[load.tid];
    if (gate.active && gate.loadSeq == load.seq)
        gate.active = false;
}

} // namespace smtavf
