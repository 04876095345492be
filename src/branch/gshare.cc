#include "branch/gshare.hh"

#include "base/logging.hh"

namespace smtavf
{

Gshare::Gshare(std::uint32_t table_entries, std::uint32_t history_bits)
    : table_(table_entries, 2), // weakly taken
      mask_(table_entries - 1),
      historyBits_(history_bits),
      historyMask_((1u << history_bits) - 1)
{
    if (table_entries == 0 || (table_entries & mask_) != 0)
        SMTAVF_FATAL("gshare table size must be a power of two");
    if (history_bits == 0 || history_bits > 20)
        SMTAVF_FATAL("gshare history bits out of range");
}

std::uint32_t
Gshare::index(Addr pc, std::uint32_t history) const
{
    return (static_cast<std::uint32_t>(pc >> 2) ^ history) & mask_;
}

bool
Gshare::predict(Addr pc) const
{
    return table_[index(pc, history_)] >= 2;
}

std::uint32_t
Gshare::speculate(bool taken)
{
    std::uint32_t pre = history_;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return pre;
}

void
Gshare::restoreHistory(std::uint32_t history)
{
    history_ = history & historyMask_;
}

void
Gshare::update(Addr pc, bool taken, std::uint32_t history)
{
    auto &ctr = table_[index(pc, history)];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace smtavf
