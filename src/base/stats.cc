#include "base/stats.hh"

#include "base/logging.hh"

namespace smtavf
{

void
StatGroup::set(const std::string &name, double value)
{
    stats_[name] = value;
}

double
StatGroup::get(const std::string &name) const
{
    auto it = stats_.find(name);
    if (it == stats_.end())
        SMTAVF_FATAL("unknown stat: ", name);
    return it->second;
}

} // namespace smtavf
