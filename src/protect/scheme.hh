/**
 * @file
 * Protection schemes attachable to every tracked structure, and the
 * per-interval coverage model that splits each ACE bit-cycle into
 * covered-by-protection vs. residually vulnerable.
 *
 * The model is an analytical overlay: it never perturbs pipeline timing,
 * so a protected run's raw AVF and IPC are bit-identical to the
 * unprotected run and only the residual classification changes. Coverage
 * is computed per closed residency interval with pure integer arithmetic,
 * making residual AVF deterministic and exactly conserving:
 *
 *   covered + uncovered == ACE bit-cycles, per structure and thread.
 *
 * Scheme effectiveness (single-bit upsets dominate raw SER):
 *
 *  - Parity: detects all single-bit flips; recovery succeeds where the
 *    state is refetchable (clean cache lines, in-flight speculative
 *    state). Modelled as covering 224/256 (87.5%) of ACE exposure.
 *  - SECDED ECC: corrects all single-bit flips; the residual 1/256
 *    accounts for temporally accumulated double-bit errors.
 *  - SECDED + scrubbing: a periodic sweep (every scrubInterval cycles)
 *    corrects latent flips, so only the last min(length, interval)
 *    cycles of each residency remain exposed at all; that exposed tail
 *    is then covered at the SECDED rate.
 *
 * The constants are simple published-style factors (cf. Slayman, IEEE
 * TDMR'05 on parity/ECC SER mitigation); what the subsystem guarantees
 * is their ordering — residual(SECDED) <= residual(parity) <= raw,
 * bit-exactly, for every structure and workload.
 */

#ifndef SMTAVF_PROTECT_SCHEME_HH
#define SMTAVF_PROTECT_SCHEME_HH

#include <array>
#include <cstdint>
#include <string>

#include "avf/structures.hh"
#include "base/types.hh"

namespace smtavf
{

/** Per-structure protection scheme. */
enum class ProtScheme : std::uint8_t
{
    None,        ///< unprotected: residual == raw
    Parity,      ///< detect-only single-bit parity
    Secded,      ///< single-error-correct double-error-detect ECC
    SecdedScrub, ///< SECDED plus periodic scrubbing sweeps
    NumSchemes
};

/** Number of protection schemes. */
constexpr std::size_t numProtSchemes =
    static_cast<std::size_t>(ProtScheme::NumSchemes);

/** Canonical lower-case name ("none", "parity", "secded", "secded+scrub"). */
const char *protSchemeName(ProtScheme s);

/**
 * Parse a scheme name; accepts the canonical names plus the aliases
 * "ecc" (= secded) and "scrub" (= secded+scrub). Case-insensitive.
 */
bool parseProtScheme(const std::string &name, ProtScheme &out);

/** Coverage numerators (x/256 of exposed ACE bit-cycles covered). */
constexpr std::uint64_t parityCoverage256 = 224;
constexpr std::uint64_t secdedCoverage256 = 255;

/**
 * ACE bit-cycles of the interval [start, end) x @p bits covered by
 * @p scheme. Pure integer arithmetic; always <= bits x (end - start).
 * @p scrub_interval only matters for SecdedScrub (0 = no scrubbing).
 */
std::uint64_t coveredAceBitCycles(ProtScheme scheme, Cycle scrub_interval,
                                  std::uint32_t bits, Cycle start, Cycle end);

/** Short assignment key for --assign ("iq", "regfile", "dl1tag", ...). */
const char *hwStructKey(HwStruct s);

/** Parse an assignment key (case-insensitive). */
bool parseHwStructKey(const std::string &key, HwStruct &out);

/** Heterogeneous per-structure protection assignment. */
struct ProtectionConfig
{
    /** Scheme per tracked structure; default all None. */
    std::array<ProtScheme, numHwStructs> scheme{};

    /** Default scrubbing sweep period in cycles (SecdedScrub only). */
    Cycle scrubInterval = 10000;

    /**
     * Per-structure scrub-interval override; 0 means "use the global
     * scrubInterval". Lets the explorer price sweep energy per structure
     * (long intervals for short-residency structures, short ones for
     * long-lived cache lines) instead of one machine-wide period.
     */
    std::array<Cycle, numHwStructs> scrubOverride{};

    ProtScheme
    schemeFor(HwStruct s) const
    {
        return scheme[static_cast<std::size_t>(s)];
    }

    /** Effective scrub period of @p s (override, else the global). */
    Cycle
    scrubIntervalFor(HwStruct s) const
    {
        Cycle o = scrubOverride[static_cast<std::size_t>(s)];
        return o ? o : scrubInterval;
    }

    void
    assign(HwStruct s, ProtScheme p)
    {
        scheme[static_cast<std::size_t>(s)] = p;
    }

    /** Assign SecdedScrub with an explicit per-structure period. */
    void
    assignScrub(HwStruct s, Cycle interval)
    {
        scheme[static_cast<std::size_t>(s)] = ProtScheme::SecdedScrub;
        scrubOverride[static_cast<std::size_t>(s)] = interval;
    }

    /** True when any structure is protected at all. */
    bool any() const;

    /**
     * Canonical summary: "none", or comma-joined "key=scheme" pairs for
     * the protected structures in HwStruct order (stable across runs, so
     * it doubles as a label and a fingerprint component).
     */
    std::string str() const;

    /** First inconsistency as a message, "" when valid. */
    std::string validateMsg() const;
};

/** Every tracked structure protected with @p s. */
ProtectionConfig uniformProtection(ProtScheme s, Cycle scrub_interval = 10000);

/**
 * Parse "iq=ecc,regfile=parity,..." into @p out (on top of whatever
 * @p out already assigns). A scrubbed structure may carry an explicit
 * per-structure period: "dl1data=scrub@2000". On failure returns false
 * and leaves a description in @p err.
 */
bool parseAssignment(const std::string &spec, ProtectionConfig &out,
                     std::string &err);

} // namespace smtavf

#endif // SMTAVF_PROTECT_SCHEME_HH
