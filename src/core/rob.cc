#include "core/rob.hh"

#include "base/logging.hh"

namespace smtavf
{

Rob::Rob(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity)
{
    if (capacity == 0)
        SMTAVF_FATAL("ROB capacity must be positive");
}

void
Rob::push(DynInstr *in)
{
    if (full())
        SMTAVF_PANIC("push into a full ROB");
    if (!entries_.empty() && entries_.back()->seq >= in->seq)
        SMTAVF_PANIC("ROB push out of program order");
    entries_.push_back(in);
}

void
Rob::popFront()
{
    if (entries_.empty())
        SMTAVF_PANIC("pop from an empty ROB");
    entries_.pop_front();
}

} // namespace smtavf
