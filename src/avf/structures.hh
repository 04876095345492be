/**
 * @file
 * Identifiers for the microarchitectural storage structures whose AVF the
 * framework tracks, plus their per-entry bit widths. Dependency-free, so
 * any module can name a structure without pulling in the AVF framework.
 *
 * The tracked set matches the paper's Figures 1-8: shared pipeline
 * structures (IQ, register file, function units), shared memory structures
 * (DL1 data, DL1 tag, DTLB) and per-thread structures (ROB, LSQ data,
 * LSQ tag). The ITLB is tracked as an extension.
 */

#ifndef SMTAVF_AVF_STRUCTURES_HH
#define SMTAVF_AVF_STRUCTURES_HH

#include <array>
#include <cstdint>

namespace smtavf
{

/** Hardware structure whose occupancy the AVF framework accounts. */
enum class HwStruct : std::uint8_t
{
    IQ,       ///< shared issue/instruction queue
    RegFile,  ///< shared physical register file pool (int + fp)
    FU,       ///< function-unit pipeline latches
    ROB,      ///< per-thread reorder buffers (accounted jointly)
    LsqData,  ///< load/store queue data fields
    LsqTag,   ///< load/store queue address CAM
    Dl1Data,  ///< L1 data-cache data array (per-byte liveness)
    Dl1Tag,   ///< L1 data-cache tag array
    Dtlb,     ///< data TLB entries
    Itlb,     ///< instruction TLB entries (extension)
    L2Data,   ///< unified L2 data array (extension, per-line granularity)
    L2Tag,    ///< unified L2 tag array (extension)
    NumStructs
};

/** Number of tracked structures. */
constexpr std::size_t numHwStructs =
    static_cast<std::size_t>(HwStruct::NumStructs);

/** Short display name used in reports (matches the paper's figure labels). */
const char *hwStructName(HwStruct s);

/**
 * Per-entry payload bit widths. These follow M-Sim-style field layouts:
 * an IQ entry carries opcode, three physical tags, an immediate and control
 * state; a ROB entry carries completion/exception state plus mappings; a
 * register is 64 data bits; an FU stage latch is modelled at 128 bits
 * (two 64-bit operands in flight); LSQ entries split into a 64-bit data
 * field and a 44-bit address CAM field; TLB entries hold VPN+PPN+flags.
 */
namespace bits
{
constexpr std::uint32_t iqEntry = 88;
constexpr std::uint32_t robEntry = 76;
constexpr std::uint32_t physReg = 64;
constexpr std::uint32_t fuLatch = 128;
constexpr std::uint32_t lsqData = 64;
constexpr std::uint32_t lsqTag = 44;
constexpr std::uint32_t cacheByte = 8;
constexpr std::uint32_t tlbEntry = 64;
} // namespace bits

} // namespace smtavf

#endif // SMTAVF_AVF_STRUCTURES_HH
