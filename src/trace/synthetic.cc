#include "trace/synthetic.hh"

#include <utility>

#include "util/logging.hh"

namespace dir2b
{

namespace
{

/** SplitMix64 finalizer: the fixed permutation behind the
 *  SyntheticConfig::spaceBlocks scatter. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** cfg, if a stream can run it; fatal otherwise. */
const SyntheticConfig &
checkedConfig(const SyntheticConfig &cfg)
{
    if (cfg.numProcs == 0)
        DIR2B_FATAL("synthetic stream needs at least one processor");
    const std::pair<const char *, double> probs[] = {
        {"q", cfg.q},
        {"w", cfg.w},
        {"sharedLocality", cfg.sharedLocality},
        {"hotFraction", cfg.hotFraction},
        {"privateWriteFrac", cfg.privateWriteFrac}};
    for (const auto &[name, p] : probs) {
        // Written so that NaN fails too.
        if (!(p >= 0.0 && p <= 1.0))
            DIR2B_FATAL("synthetic stream probabilities must be in "
                        "[0,1]: ", name, " is ", p);
    }
    if (cfg.sharedBlocks == 0)
        DIR2B_FATAL("synthetic stream needs at least one shared block");
    if (cfg.privateBlocks == 0)
        DIR2B_FATAL("synthetic stream needs at least one private block");
    if (cfg.hotBlocks > cfg.privateBlocks)
        DIR2B_FATAL("hot subset larger than the private working set");
    return cfg;
}

} // namespace

SyntheticConfig
timedSyntheticConfig(ProcId procs, double q, std::uint64_t seed)
{
    SyntheticConfig c;
    c.numProcs = procs;
    c.q = q;
    c.w = 0.3;
    c.sharedBlocks = 16;
    c.privateBlocks = 96;
    c.hotBlocks = 24;
    c.sharedLocality = 0.9;
    c.seed = seed;
    return c;
}

SyntheticStream::SyntheticStream(const SyntheticConfig &cfg)
    : cfg_(checkedConfig(cfg)), sharedBound_(cfg_.sharedBlocks),
      hotBound_(cfg_.hotBlocks ? cfg_.hotBlocks : 1),
      privateBound_(cfg_.privateBlocks),
      spaceBound_(cfg_.spaceBlocks ? cfg_.spaceBlocks : 1)
{
    Rng seeder(cfg_.seed);
    rngs_.reserve(cfg_.numProcs);
    for (ProcId p = 0; p < cfg_.numProcs; ++p)
        rngs_.push_back(seeder.split());
    lastShared_.assign(cfg_.numProcs, invalidAddr);
    total_.assign(cfg_.numProcs, 0);
    shared_.assign(cfg_.numProcs, 0);
}

Addr
SyntheticStream::scatter(Addr a) const
{
    if (!cfg_.spaceBlocks)
        return a;
    return static_cast<Addr>(spaceBound_.mod(mix64(a)));
}

MemRef
SyntheticStream::nextFor(ProcId p)
{
    DIR2B_ASSERT(p < cfg_.numProcs, "nextFor unknown processor ", p);
    Rng &rng = rngs_[p];
    ++total_[p];

    if (rng.chance(cfg_.q)) {
        // Writeable shared block: re-reference the previous one with
        // probability sharedLocality, else uniform over the S blocks.
        ++shared_[p];
        Addr a;
        if (lastShared_[p] != invalidAddr &&
            rng.chance(cfg_.sharedLocality)) {
            a = lastShared_[p];
        } else {
            a = sharedRegionBase + rng.range(sharedBound_);
        }
        lastShared_[p] = a;
        return MemRef{p, scatter(a), rng.chance(cfg_.w)};
    }

    // Private block with two-level locality.
    Addr offset;
    if (cfg_.hotBlocks > 0 && rng.chance(cfg_.hotFraction))
        offset = rng.range(hotBound_);
    else
        offset = rng.range(privateBound_);
    const Addr a = scatter(privateRegionBase(p) + offset);
    return MemRef{p, a, rng.chance(cfg_.privateWriteFrac)};
}

std::optional<MemRef>
SyntheticStream::next()
{
    const MemRef r = nextFor(turn_);
    if (++turn_ == cfg_.numProcs)
        turn_ = 0;
    return r;
}

double
SyntheticStream::measuredSharedFraction()
    const
{
    std::uint64_t total = 0;
    std::uint64_t shared = 0;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        total += total_[p];
        shared += shared_[p];
    }
    return total ? static_cast<double>(shared) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace dir2b
