/**
 * @file
 * Per-thread register rename map (architectural -> physical), recovered on
 * squash by walking the ROB backwards and re-installing each squashed
 * instruction's previous mapping.
 */

#ifndef SMTAVF_CORE_RENAME_HH
#define SMTAVF_CORE_RENAME_HH

#include <array>

#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** One thread's rename table. */
class RenameMap
{
  public:
    RenameMap();

    /** Current physical mapping of @p arch_reg (invalidReg if unmapped). */
    RegIndex lookup(RegIndex arch_reg) const;

    /** Install a new mapping; returns the displaced physical register. */
    RegIndex set(RegIndex arch_reg, RegIndex phys);

    /** Checkpoint hook. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(map_);
    }

  private:
    std::array<RegIndex, numArchRegs> map_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_RENAME_HH
