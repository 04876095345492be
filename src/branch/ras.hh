/**
 * @file
 * Return address stack (32 entries per thread, Table 1). Overflow wraps,
 * underflow predicts garbage — both behaviours of real hardware.
 */

#ifndef SMTAVF_BRANCH_RAS_HH
#define SMTAVF_BRANCH_RAS_HH

#include <cstdint>
#include <vector>

#include "base/arena.hh"
#include "base/types.hh"

namespace smtavf
{

/** Circular return-address stack. */
class Ras
{
  public:
    explicit Ras(std::uint32_t entries);

    /** Push a return address (on call fetch). */
    void push(Addr return_addr);

    /** Pop the predicted return address (on return fetch). */
    Addr pop();

    /** Current logical depth (saturates at capacity). */
    std::uint32_t depth() const { return depth_; }

    /** Snapshot for squash recovery. */
    struct State
    {
        std::uint32_t top;
        std::uint32_t depth;
    };

    State save() const { return {top_, depth_}; }
    void restore(State s);

    /** Checkpoint hook. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(stack_);
        ar(top_);
        ar(depth_);
    }

  private:
    AVec<Addr> stack_;
    std::uint32_t top_ = 0;
    std::uint32_t depth_ = 0;
};

} // namespace smtavf

#endif // SMTAVF_BRANCH_RAS_HH
