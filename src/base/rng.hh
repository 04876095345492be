/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We use xoshiro256** (public domain, Blackman & Vigna): fast, high quality,
 * and trivially seedable so every simulation is bit-reproducible from
 * MachineConfig::seed.
 */

#ifndef SMTAVF_BASE_RNG_HH
#define SMTAVF_BASE_RNG_HH

#include <array>
#include <cstdint>

namespace smtavf
{

/**
 * Seedable xoshiro256** generator with convenience draws used by the
 * synthetic workload generator (uniform, bernoulli, zipf-like).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t uniform(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** True with probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * Zipf-like draw over [0, n): item k has weight 1/(k+1)^s. Used to pick
     * "hot" working-set regions. O(log n) via inverse-CDF on a cached table
     * would be overkill; we use the rejection-free approximation adequate
     * for workload shaping.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

    /** Re-seed the generator. */
    void seed(std::uint64_t value);

    /** Checkpoint hook (ckpt/serializer.hh): the full xoshiro state. */
    template <class Ar>
    void
    serialize(Ar &ar)
    {
        ar(state_);
    }

  private:
    std::array<std::uint64_t, 4> state_;
};

/**
 * Derive the @p index -th child seed of a campaign master seed: an O(1)
 * splitmix64-finalizer mix of (master, index). Child streams are
 * decorrelated from each other and from the master stream, so a campaign
 * can hand every run (or every injection trial) its own Rng whose draws
 * do not depend on which worker executes it or in what order — the
 * seed-splitting contract behind schedule-independent parallel campaigns
 * (sim/campaign.hh).
 */
std::uint64_t splitSeed(std::uint64_t master, std::uint64_t index);

} // namespace smtavf

#endif // SMTAVF_BASE_RNG_HH
