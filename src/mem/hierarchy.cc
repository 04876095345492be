#include "mem/hierarchy.hh"

#include <algorithm>

#include "base/logging.hh"

namespace smtavf
{

MemHierarchy::MemHierarchy(const MemConfig &cfg)
    : cfg_(cfg), il1_(cfg.il1), dl1_(cfg.dl1), l2_(cfg.l2),
      itlb_(cfg.itlb), dtlb_(cfg.dtlb),
      mshrPool_(std::make_shared<SlabPool>()),
      il1Mshrs_(PoolAlloc<std::pair<const Addr, Mshr>>(mshrPool_)),
      dl1Mshrs_(PoolAlloc<std::pair<const Addr, Mshr>>(mshrPool_)),
      l2Mshrs_(PoolAlloc<std::pair<const Addr, Mshr>>(mshrPool_))
{
    // NOTE: do not reserve() these maps. drainMshrs replays fills in map
    // iteration order, which depends on the bucket count — changing it
    // reorders same-cycle ledger writes and perturbs the floating-point
    // AVF sums. The maps do rehash as outstanding misses grow past their
    // bucket count, and every rehash reorders later drains.
}

void
MemHierarchy::reset()
{
    il1_.reset();
    dl1_.reset();
    l2_.reset();
    itlb_.reset();
    dtlb_.reset();
    renewMshrs();
}

void
MemHierarchy::renewMshrs()
{
    PoolAlloc<std::pair<const Addr, Mshr>> alloc(mshrPool_);
    il1Mshrs_ = MshrMap(alloc);
    dl1Mshrs_ = MshrMap(alloc);
    l2Mshrs_ = MshrMap(alloc);
}

Cycle
MemHierarchy::accessL2(ThreadId tid, Addr addr, Cycle now, bool &l2_miss)
{
    if (l2_.access(addr, 1, false, tid, now)) {
        l2_miss = false;
        return now + cfg_.l2.latency;
    }

    l2_miss = true;
    Addr l2_line = l2_.lineAddr(addr);
    auto it = l2Mshrs_.find(l2_line);
    if (it != l2Mshrs_.end())
        return it->second.ready;

    Cycle ready = now + cfg_.memLatency;
    l2Mshrs_.emplace(l2_line, Mshr{ready, true, tid, {}});
    return ready;
}

MemOutcome
MemHierarchy::accessL1(Cache &l1, MshrMap &mshrs, ThreadId tid, Addr addr,
                       std::uint32_t size, bool is_write, Cycle now)
{
    MemOutcome out;
    if (l1.access(addr, size, is_write, tid, now)) {
        out.ready = now + l1.config().latency;
        return out;
    }

    out.l1Miss = true;
    Addr line = l1.lineAddr(addr);
    auto it = mshrs.find(line);
    if (it != mshrs.end()) {
        // Merge into the outstanding miss.
        out.ready = it->second.ready;
        out.l2Miss = it->second.l2Miss;
        it->second.ops.push_back({is_write, addr, size, tid});
        return out;
    }

    bool l2_miss = false;
    Cycle ready = accessL2(tid, addr, now, l2_miss);
    out.ready = ready;
    out.l2Miss = l2_miss;
    Mshr mshr;
    mshr.ready = ready;
    mshr.l2Miss = l2_miss;
    mshr.tid = tid;
    mshr.ops.push_back({is_write, addr, size, tid});
    mshrs.emplace(line, std::move(mshr));
    return out;
}

MemOutcome
MemHierarchy::load(ThreadId tid, Addr addr, std::uint32_t size, Cycle now)
{
    std::uint32_t tlb_penalty = dtlb_.access(addr, tid, now);
    MemOutcome out = accessL1(dl1_, dl1Mshrs_, tid, addr, size, false, now);
    if (tlb_penalty) {
        out.tlbMiss = true;
        out.ready += tlb_penalty;
    }
    return out;
}

std::uint32_t
MemHierarchy::translateData(ThreadId tid, Addr addr, Cycle now)
{
    return dtlb_.access(addr, tid, now);
}

MemOutcome
MemHierarchy::storeCommit(ThreadId tid, Addr addr, std::uint32_t size,
                          Cycle now)
{
    return accessL1(dl1_, dl1Mshrs_, tid, addr, size, true, now);
}

MemOutcome
MemHierarchy::fetch(ThreadId tid, Addr pc, Cycle now)
{
    std::uint32_t tlb_penalty = itlb_.access(pc, tid, now);
    MemOutcome out = accessL1(il1_, il1Mshrs_, tid, pc, 4, false, now);
    if (tlb_penalty) {
        out.tlbMiss = true;
        out.ready += tlb_penalty;
    }
    return out;
}

bool
MemHierarchy::drainMshrs(Cache &l1, MshrMap &mshrs, Cycle now, bool force)
{
    bool landed = false;
    for (auto it = mshrs.begin(); it != mshrs.end();) {
        if (force || it->second.ready <= now) {
            Cycle land = std::min(it->second.ready, now);
            l1.fill(it->first, it->second.tid, land);
            for (const auto &op : it->second.ops) {
                bool hit [[maybe_unused]] =
                    l1.access(op.addr, op.size, op.isWrite, op.tid, land);
            }
            it = mshrs.erase(it);
            landed = true;
        } else {
            ++it;
        }
    }
    return landed;
}

bool
MemHierarchy::tick(Cycle now)
{
    if (outstandingMisses() == 0)
        return false;
    // L2 fills must land before L1 fills that depend on them; both maps are
    // drained by ready time, and L1 ready times are never earlier than the
    // corresponding L2 fill, so draining L2 first suffices.
    bool landed = false;
    for (auto it = l2Mshrs_.begin(); it != l2Mshrs_.end();) {
        if (it->second.ready <= now) {
            l2_.fill(it->first, it->second.tid, it->second.ready);
            it = l2Mshrs_.erase(it);
            landed = true;
        } else {
            ++it;
        }
    }
    landed |= drainMshrs(il1_, il1Mshrs_, now, false);
    landed |= drainMshrs(dl1_, dl1Mshrs_, now, false);
    return landed;
}

Cycle
MemHierarchy::nextFill() const
{
    Cycle next = maxCycle;
    for (const MshrMap *mshrs : {&l2Mshrs_, &il1Mshrs_, &dl1Mshrs_})
        for (const auto &kv : *mshrs)
            next = std::min(next, kv.second.ready);
    return next;
}

void
MemHierarchy::finalize(Cycle now)
{
    for (auto &kv : l2Mshrs_)
        l2_.fill(kv.first, kv.second.tid, now);
    l2Mshrs_.clear();
    drainMshrs(il1_, il1Mshrs_, now, true);
    drainMshrs(dl1_, dl1Mshrs_, now, true);
    dl1_.flushAll(now);
    il1_.flushAll(now);
    // Only an L2 tracker (avf.trackL2Avf) reads the L2's closing
    // intervals; an untracked run skips the flush.
    if (l2_.observed())
        l2_.flushAll(now);
    itlb_.flushAll(now);
    dtlb_.flushAll(now);
}

} // namespace smtavf
