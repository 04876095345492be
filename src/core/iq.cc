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
}

void
IssueQueue::insert(DynInstr *in)
{
    if (full())
        SMTAVF_PANIC("insert into a full IQ");
    if (!entries_.empty() && entries_.back()->globalSeq >= in->globalSeq)
        SMTAVF_PANIC("IQ insert out of global dispatch order");
    entries_.push_back(in);
    in->inIq = true;
}

void
IssueQueue::remove(const DynInstr *in)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (*it == in) {
            (*it)->inIq = false;
            entries_.erase(it);
            return;
        }
    }
    SMTAVF_PANIC("removing an instruction not in the IQ");
}

void
IssueQueue::removeIssued()
{
    auto out = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if ((*it)->issued) {
            (*it)->inIq = false;
        } else {
            *out = *it;
            ++out;
        }
    }
    entries_.erase(out, entries_.end());
}

} // namespace smtavf
