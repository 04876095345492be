#include "policy/pstall.hh"

#include "base/logging.hh"

namespace smtavf
{

PStallPolicy::PStallPolicy(PolicyContext &ctx, std::uint32_t table_entries)
    : FetchPolicy(ctx), table_(table_entries, 1) // weakly no-miss
{
    if (table_entries == 0 || (table_entries & (table_entries - 1)) != 0)
        SMTAVF_FATAL("PSTALL table size must be a power of two");
}

std::uint32_t
PStallPolicy::tableIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) &
           (static_cast<std::uint32_t>(table_.size()) - 1);
}

const std::vector<ThreadId> &
PStallPolicy::fetchOrder(Cycle now)
{
    (void)now;
    const auto &order = icountOrder();
    order_.clear();
    for (ThreadId tid : order) {
        if (gates_[tid].active)
            continue; // predicted miss in flight
        if (ctx_.outstandingL2D(tid) > 0)
            continue; // actual miss outstanding (STALL behaviour)
        order_.push_back(tid);
    }
    if (order_.empty())
        return order; // keep at least one thread fetching
    return order_;
}

void
PStallPolicy::onFetch(DynInstr &in)
{
    if (in.op != OpClass::Load)
        return;
    auto &gate = gates_[in.tid];
    if (gate.active)
        return; // already gated by an older predicted miss
    if (table_[tableIndex(in.pc)] >= 2) {
        gate.active = true;
        gate.loadSeq = in.seq;
    }
}

void
PStallPolicy::onLoadIssued(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l1_miss;
    auto &ctr = table_[tableIndex(load.pc)];
    if (l2_miss) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
        // A predicted-miss load that actually hit releases its gate early.
        auto &gate = gates_[load.tid];
        if (gate.active && gate.loadSeq == load.seq)
            gate.active = false;
    }
}

void
PStallPolicy::onLoadDone(DynInstr &load, bool l1_miss, bool l2_miss)
{
    (void)l1_miss;
    (void)l2_miss;
    auto &gate = gates_[load.tid];
    if (gate.active && gate.loadSeq == load.seq)
        gate.active = false;
}

} // namespace smtavf
