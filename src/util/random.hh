/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in dir2b (synthetic reference generators,
 * structured workloads, randomised tests) draws from an explicitly
 * seeded Rng so that a run is reproducible from its configuration
 * alone.  The generator is xoshiro256**, seeded through SplitMix64 as
 * its authors recommend.  The draws a generator makes per reference
 * (next, uniform, chance and range over a RangeBound) are inline and
 * divide nothing.
 */

#ifndef DIR2B_UTIL_RANDOM_HH
#define DIR2B_UTIL_RANDOM_HH

#include <cstdint>

#include "util/logging.hh"

namespace dir2b
{

/**
 * A fixed bound b >= 1 for Rng::range, with what a draw needs
 * computed once: the rejection threshold 2^64 mod b and the remainder
 * magic ceil(2^128 / b) of Lemire, Kaser and Kurz, "Faster remainder
 * by direct computation" (2019).  mod() then takes x % b with four
 * multiplies and no division.  With a 128-bit magic and 64-bit
 * operands the method is exact for every x and every b (their
 * Theorem 1 with F = 128 >= N + L = 64 + 64); b = 1 wraps the magic to
 * 0, which gives the right remainder, 0.
 */
class RangeBound
{
  public:
    explicit RangeBound(std::uint64_t b);

    /** Draws below this are rejected so that every residue is equally
     *  likely. */
    std::uint64_t threshold() const { return threshold_; }

    /** x % b, without a division. */
    std::uint64_t
    mod(std::uint64_t x) const
    {
        using u128 = unsigned __int128;
        // The low 128 bits of magic * x, then their product with b
        // shifted down by 128, in 64-bit halves.
        const u128 low = magic_ * x;
        const u128 bottom =
            (static_cast<u128>(static_cast<std::uint64_t>(low)) * b_) >>
            64;
        const u128 top =
            static_cast<u128>(static_cast<std::uint64_t>(low >> 64)) * b_;
        return static_cast<std::uint64_t>((bottom + top) >> 64);
    }

  private:
    std::uint64_t b_;
    std::uint64_t threshold_;
    unsigned __int128 magic_;
};

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed; distinct seeds give distinct
     *  well-mixed streams. */
    explicit Rng(std::uint64_t seed = 0x2b2b2b2bULL) { reseed(seed); }

    /** Reset the stream to a fresh seed. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint64_t range(std::uint64_t bound);

    /** range(b) for the bound b was built from, draw for draw, with
     *  no division. */
    std::uint64_t
    range(const RangeBound &b)
    {
        for (;;) {
            const std::uint64_t r = next();
            if (r >= b.threshold())
                return b.mod(r);
        }
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random bits into [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric draw: number of failures before the first success with
     * per-trial probability p.  Used for run lengths in reference
     * generators.
     */
    std::uint64_t geometric(double p);

    /** Split off an independent child stream (for per-processor use). */
    Rng split();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace dir2b

#endif // DIR2B_UTIL_RANDOM_HH
