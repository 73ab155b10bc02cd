/**
 * @file rng.hh
 * Deterministic pseudo random number generation.
 *
 * All randomized behaviour in the library (security byte sizing, workload
 * address streams, corpus generation) flows through this generator so that
 * every experiment is exactly reproducible from its seed. The paper uses
 * random 1..N byte security spans and three differently-seeded binaries per
 * configuration (Section 8.2); we reproduce that by re-seeding this RNG.
 */

#ifndef CALIFORMS_UTIL_RNG_HH
#define CALIFORMS_UTIL_RNG_HH

#include <cstdint>

namespace califorms
{

/**
 * xoshiro256** 1.0 by Blackman & Vigna — small, fast, and good enough for
 * simulation purposes. Seeded via splitmix64 so that any 64-bit seed
 * produces a well-mixed state. The draws are inline so a generator's
 * per-op draws compile into its own loop.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eedcafe) { reseed(seed); }

    /** Reset the stream to a deterministic function of @p seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound) using rejection sampling. A
     * power-of-two bound takes the low bits of one draw: its rejection
     * threshold (0 - bound) % bound is zero and r % bound is
     * r & (bound - 1), so this is the loop's own result without the
     * two divisions.
     */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound <= 1)
            return 0;
        if ((bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi], inclusive on both ends. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

} // namespace califorms

#endif // CALIFORMS_UTIL_RNG_HH
