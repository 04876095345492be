/**
 * @file
 * Fundamental scalar type aliases shared across the smtavf library.
 */

#ifndef SMTAVF_BASE_TYPES_HH
#define SMTAVF_BASE_TYPES_HH

#include <cstdint>

namespace smtavf
{

/** Simulation cycle count. Monotonically increasing, starts at 0. */
using Cycle = std::uint64_t;

/** The cycle that never comes: "no such event". */
constexpr Cycle maxCycle = ~Cycle{0};

/** Dynamic-instruction sequence number, unique per thread per run. */
using SeqNum = std::uint64_t;

/** Byte address in the synthetic virtual address space. */
using Addr = std::uint64_t;

/** Hardware thread-context identifier (0-based). */
using ThreadId = std::uint16_t;

/** Architectural or physical register index. */
using RegIndex = std::int32_t;

/** Sentinel meaning "no register". */
constexpr RegIndex invalidReg = -1;

/** Sentinel meaning "no thread". */
constexpr ThreadId invalidThread = 0xffff;

/** Maximum hardware thread contexts the model supports. */
constexpr unsigned maxContexts = 8;

} // namespace smtavf

#endif // SMTAVF_BASE_TYPES_HH
