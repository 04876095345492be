/**
 * @file
 * Lightweight statistics package: a registry of named scalar stats that
 * components deposit their final values in and that the simulator dumps
 * at end of run.
 */

#ifndef SMTAVF_BASE_STATS_HH
#define SMTAVF_BASE_STATS_HH

#include <map>
#include <string>

namespace smtavf
{

/**
 * Registry mapping dotted stat names to values; components deposit final
 * values here so reports and tests can read them uniformly.
 */
class StatGroup
{
  public:
    /** Set (or overwrite) a named scalar. */
    void set(const std::string &name, double value);

    /** Read a named scalar; fatal if absent. */
    double get(const std::string &name) const;

    /** All stats in name order. */
    const std::map<std::string, double> &all() const { return stats_; }

  private:
    std::map<std::string, double> stats_;
};

} // namespace smtavf

#endif // SMTAVF_BASE_STATS_HH
