#include "mem/tlb.hh"

#include <bit>

#include "base/logging.hh"

namespace smtavf
{

Tlb::Tlb(const TlbConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.entries == 0 || cfg_.ways == 0 ||
        cfg_.entries % cfg_.ways != 0)
        SMTAVF_FATAL(cfg_.name, ": bad geometry");
    sets_ = cfg_.entries / cfg_.ways;
    if ((sets_ & (sets_ - 1)) != 0)
        SMTAVF_FATAL(cfg_.name, ": set count must be a power of two");
    if (cfg_.pageBytes == 0 || (cfg_.pageBytes & (cfg_.pageBytes - 1)) != 0)
        SMTAVF_FATAL(cfg_.name, ": page size must be a power of two");
    pageShift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.pageBytes));
    entries_.resize(cfg_.entries);
}

inline Tlb::Entry *
Tlb::lookup(Addr vpn, ThreadId tid, Entry *&victim)
{
    Entry *set = &entries_[(static_cast<std::uint32_t>(vpn) & (sets_ - 1)) *
                           cfg_.ways];
    victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.vpn == vpn && e.tid == tid)
            return &e;
        if (!victim || !e.valid ||
            (victim->valid && e.lastUse < victim->lastUse))
            victim = &e;
    }
    return nullptr;
}

inline void
Tlb::install(Entry &victim, Addr vpn, ThreadId tid, Cycle now)
{
    auto slot = static_cast<std::uint32_t>(&victim - entries_.data());
    if (victim.valid && observer_)
        observer_->onEvict(slot, now);
    victim.valid = true;
    victim.vpn = vpn;
    victim.tid = tid;
    victim.lastUse = ++useClock_;
    if (observer_)
        observer_->onFill(slot, tid, now);
}

std::uint32_t
Tlb::access(Addr addr, ThreadId tid, Cycle now)
{
    Addr vpn = addr >> pageShift_;
    Entry *victim;
    if (Entry *e = lookup(vpn, tid, victim)) {
        e->lastUse = ++useClock_;
        ++hits_;
        if (observer_) {
            auto slot = static_cast<std::uint32_t>(e - entries_.data());
            observer_->onHit(slot, tid, now);
        }
        return 0;
    }
    ++misses_;
    install(*victim, vpn, tid, now);
    return cfg_.missPenalty;
}

void
Tlb::prefill(Addr addr, ThreadId tid)
{
    Addr vpn = addr >> pageShift_;
    Entry *victim;
    if (!lookup(vpn, tid, victim))
        install(*victim, vpn, tid, 0);
}

void
Tlb::flushAll(Cycle now)
{
    for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
        auto &e = entries_[slot];
        if (!e.valid)
            continue;
        if (observer_)
            observer_->onEvict(slot, now);
        e.valid = false;
    }
}

} // namespace smtavf
