#include "core/lsq.hh"

#include "base/logging.hh"

namespace smtavf
{

Lsq::Lsq(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity)
{
    if (capacity == 0)
        SMTAVF_FATAL("LSQ capacity must be positive");
}

void
Lsq::push(DynInstr *in)
{
    if (full())
        SMTAVF_PANIC("push into a full LSQ");
    if (!in->isMem())
        SMTAVF_PANIC("non-memory instruction pushed into the LSQ");
    entries_.push_back(in);
}

void
Lsq::popCommitted(const DynInstr *in)
{
    if (entries_.empty() || entries_.front() != in)
        SMTAVF_PANIC("LSQ commit out of order");
    entries_.pop_front();
}

void
Lsq::squashAfter(SeqNum seq)
{
    while (!entries_.empty() && entries_.back()->seq > seq)
        entries_.pop_back();
}

} // namespace smtavf
