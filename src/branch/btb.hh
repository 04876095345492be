/**
 * @file
 * Branch target buffer: 2K entries, 4-way set associative, LRU, private
 * per thread (Table 1).
 */

#ifndef SMTAVF_BRANCH_BTB_HH
#define SMTAVF_BRANCH_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/arena.hh"
#include "base/types.hh"

namespace smtavf
{

/** Set-associative branch target buffer. */
class Btb
{
  public:
    /**
     * @param entries total entries (power of two)
     * @param ways    associativity (divides entries)
     */
    Btb(std::uint32_t entries, std::uint32_t ways);

    /** Predicted target for @p pc, or nullopt on a BTB miss. */
    std::optional<Addr> lookup(Addr pc);

    /** Install/refresh the target of the branch at @p pc. */
    void update(Addr pc, Addr target);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Checkpoint hook: entries, LRU clock and hit/miss counters. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(entries_);
        ar(useClock_);
        ar(hits_);
        ar(misses_);
    }

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        serialize(Ar &ar)
        {
            ar(valid);
            ar(tag);
            ar(target);
            ar(lastUse);
        }
    };

    std::uint32_t setIndex(Addr pc) const;

    AVec<Entry> entries_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_BRANCH_BTB_HH
