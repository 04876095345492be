/**
 * @file
 * Function-unit pool (Table 1: 8 integer ALUs, 4 integer MUL/DIV, 4
 * load/store units, 8 FP ALUs, 4 FP MUL/DIV/SQRT). Units are pipelined
 * (occupancy 1) except dividers, which stay busy for the full latency.
 */

#ifndef SMTAVF_CORE_FU_POOL_HH
#define SMTAVF_CORE_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "avf/structures.hh"
#include "base/arena.hh"
#include "base/types.hh"
#include "isa/instr.hh"

namespace smtavf
{

/** Function-unit classes. */
enum class FuType : std::uint8_t
{
    IntAlu,
    IntMulDiv,
    MemPort,
    FpAlu,
    FpMulDiv,
    None, ///< NOPs execute nowhere
    NumFuTypes = None
};

/** Per-class unit counts (Table 1 defaults). */
struct FuConfig
{
    std::uint32_t intAlu = 8;
    std::uint32_t intMulDiv = 4;
    std::uint32_t memPorts = 4;
    std::uint32_t fpAlu = 8;
    std::uint32_t fpMulDiv = 4;

    std::uint32_t total() const
    {
        return intAlu + intMulDiv + memPorts + fpAlu + fpMulDiv;
    }
};

/** FU class an operation executes on. */
FuType fuTypeFor(OpClass op);

/** Execution latency of an operation (loads add memory time on top). */
std::uint32_t execLatency(OpClass op);

/** Cycles the unit stays unavailable (latency for dividers, else 1). */
std::uint32_t fuOccupancy(OpClass op);

/** The pool of execution resources. */
class FuPool
{
  public:
    explicit FuPool(const FuConfig &cfg);

    /**
     * Claim a unit of @p type for @p occupancy cycles starting at @p now.
     * @return true on success; false when every unit is busy.
     */
    bool acquire(FuType type, Cycle now, std::uint32_t occupancy);

    const FuConfig &config() const { return cfg_; }

    /** Total FU latch bits for AVF accounting. */
    std::uint64_t totalBits() const
    {
        return static_cast<std::uint64_t>(cfg_.total()) * bits::fuLatch;
    }

    /**
     * Checkpoint hook. Busy horizons are absolute cycles and the clock
     * continues from the restored value, so they serialize as-is (all
     * in the past anyway once the pipeline is drained).
     */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(busyUntil_);
    }

  private:
    FuConfig cfg_;
    std::array<AVec<Cycle>, static_cast<std::size_t>(
                                FuType::NumFuTypes)> busyUntil_;
};

} // namespace smtavf

#endif // SMTAVF_CORE_FU_POOL_HH
