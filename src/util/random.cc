#include "util/random.hh"

#include <cmath>

namespace dir2b
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    // Expand the seed through SplitMix64; guarantees a nonzero state.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

RangeBound::RangeBound(std::uint64_t b)
    : b_(b), threshold_(0), magic_(0)
{
    DIR2B_ASSERT(b > 0, "RangeBound with zero bound");
    threshold_ = -b % b;
    magic_ = ~static_cast<unsigned __int128>(0) / b + 1;
}

std::uint64_t
Rng::range(std::uint64_t bound)
{
    DIR2B_ASSERT(bound > 0, "Rng::range with zero bound");
    // Debiased modulo (Lemire-style rejection on the low word).
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::geometric(double p)
{
    DIR2B_ASSERT(p > 0.0 && p <= 1.0, "geometric parameter out of range");
    if (p >= 1.0)
        return 0;
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

Rng
Rng::split()
{
    Rng child(0);
    // Derive the child state from fresh draws so parent and child
    // streams are decorrelated.
    for (auto &word : child.s_)
        word = next() | 1;
    return child;
}

} // namespace dir2b
