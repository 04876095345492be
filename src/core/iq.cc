#include "core/iq.hh"

#include "base/logging.hh"

namespace smtavf
{

IssueQueue::IssueQueue(std::uint32_t capacity)
    : capacity_(capacity)
{
    if (capacity == 0)
        SMTAVF_FATAL("IQ capacity must be positive");
    entries_.reserve(capacity);
    keys_.reserve(capacity);
}

void
IssueQueue::insert(DynInstr *in)
{
    if (full())
        SMTAVF_PANIC("insert into a full IQ");
    if (!entries_.empty() && entries_.back()->globalSeq >= in->globalSeq)
        SMTAVF_PANIC("IQ insert out of global dispatch order");
    entries_.push_back(in);
    keys_.push_back({in->srcPhys1, in->op == OpClass::Store ? invalidReg
                                                            : in->srcPhys2});
    in->inIq = true;
}

void
IssueQueue::remove(const DynInstr *in)
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i] == in) {
            entries_[i]->inIq = false;
            entries_.erase(entries_.begin() + i);
            keys_.erase(keys_.begin() + i);
            return;
        }
    }
    SMTAVF_PANIC("removing an instruction not in the IQ");
}

void
IssueQueue::removeAt(const std::uint32_t *pos, std::uint32_t n)
{
    if (n == 0)
        return;
    const std::uint32_t size = static_cast<std::uint32_t>(entries_.size());
    std::uint32_t out = pos[0];
    for (std::uint32_t k = 0; k < n; ++k) {
        entries_[pos[k]]->inIq = false;
        std::uint32_t next = k + 1 < n ? pos[k + 1] : size;
        for (std::uint32_t i = pos[k] + 1; i < next; ++i, ++out) {
            entries_[out] = entries_[i];
            keys_[out] = keys_[i];
        }
    }
    entries_.resize(out);
    keys_.resize(out);
}

} // namespace smtavf
