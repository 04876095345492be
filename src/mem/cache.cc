#include "mem/cache.hh"

#include <bit>

#include "base/logging.hh"

namespace smtavf
{

namespace
{

bool
powerOfTwo(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.sizeBytes == 0 || cfg_.ways == 0 || cfg_.lineBytes == 0)
        SMTAVF_FATAL(cfg_.name, ": zero geometry parameter");
    if (!powerOfTwo(cfg_.lineBytes))
        SMTAVF_FATAL(cfg_.name, ": line size must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.lineBytes));
    std::uint64_t lines = cfg_.sizeBytes / cfg_.lineBytes;
    if (lines % cfg_.ways != 0)
        SMTAVF_FATAL(cfg_.name, ": lines not divisible by ways");
    sets_ = static_cast<std::uint32_t>(lines / cfg_.ways);
    if (!powerOfTwo(sets_))
        SMTAVF_FATAL(cfg_.name, ": set count must be a power of two");
    lines_.resize(lines);
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Addr line_addr = lineAddr(addr);
    Line *set = &lines_[setIndex(addr) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
        if (set[w].valid() && set[w].tag == line_addr)
            return &set[w];
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::access(Addr addr, std::uint32_t size, bool is_write, ThreadId tid,
              Cycle now)
{
    Line *line = findLine(addr);
    if (!line) {
        ++misses_;
        return false;
    }
    ++hits_;
    line->state = (line->state & ~Line::kStampMask) | ++useClock_ |
                  (is_write ? Line::kDirty : 0);
    if (observer_) {
        auto slot = static_cast<std::uint32_t>(line - lines_.data());
        observer_->onAccess(slot, addr, size, is_write, tid, now);
    }
    return true;
}

inline void
Cache::fillSet(Addr line_addr, std::uint32_t set, ThreadId tid, Cycle now)
{
    const std::uint32_t ways = cfg_.ways;
    Line *lines = &lines_[set * ways];
    std::uint32_t invalid = ways;
    std::uint32_t lru = ways;
    std::uint64_t lru_stamp = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < ways; ++w) {
        const Line &line = lines[w];
        if (line.valid()) {
            if (line.tag == line_addr)
                return;
            if (line.lastUse() < lru_stamp) {
                lru_stamp = line.lastUse();
                lru = w;
            }
        } else if (invalid == ways) {
            invalid = w;
        }
    }

    const std::uint32_t way = invalid != ways ? invalid : lru;
    Line &victim = lines[way];
    const std::uint32_t slot = set * ways + way;
    if (observer_ && victim.valid())
        observer_->onEvict(slot, victim.dirty(), now);
    victim.tag = line_addr;
    victim.state = Line::kValid | ++useClock_;
    if (observer_)
        observer_->onFill(slot, line_addr, tid, now);
}

void
Cache::fill(Addr addr, ThreadId tid, Cycle now)
{
    fillSet(lineAddr(addr), setIndex(addr), tid, now);
}

void
Cache::prefill(Addr base, std::uint64_t size, ThreadId tid, Cycle now)
{
    const std::uint64_t count =
        (size >> lineShift_) + ((size & (cfg_.lineBytes - 1)) != 0);
    Addr line_addr = lineAddr(base);
    std::uint32_t set = setIndex(base);
    for (std::uint64_t i = 0; i < count; ++i) {
        fillSet(line_addr, set, tid, now);
        line_addr += cfg_.lineBytes;
        set = (set + 1) & (sets_ - 1);
    }
}

void
Cache::flushAll(Cycle now)
{
    for (std::uint32_t slot = 0; slot < lines_.size(); ++slot) {
        auto &line = lines_[slot];
        if (!line.valid())
            continue;
        if (observer_)
            observer_->onEvict(slot, line.dirty(), now);
        line.state &= Line::kStampMask;
    }
}

} // namespace smtavf
