/**
 * @file
 * The Dubois-Briggs-style synthetic reference model of §4.1/§4.2.
 *
 * Each processor's reference stream is the merge of:
 *
 *  - with probability q, a reference to one of S writeable shared
 *    blocks (uniform across them, matching Table 4-2's "probability
 *    that a shared block reference is to a particular shared block is
 *    1/S"); the reference is a write with probability w;
 *
 *  - with probability 1-q, a reference to the processor's private
 *    working set of P blocks.  Private locality is a two-level model:
 *    with probability hotFraction the reference goes to a small hot
 *    subset, giving realistic high private hit ratios without tying
 *    the generator to a specific cache geometry.  Private writes occur
 *    with probability privateWriteFrac.
 *
 * The *shared* hit ratio h and the global-state occupancies P(P1),
 * P(P*), P(PM) are therefore emergent quantities; experiments measure
 * them and feed the measurements back into the closed-form overhead
 * model, which is how bench_sim_validation cross-checks Table 4-1
 * without assuming the paper's probabilities hold by fiat.
 */

#ifndef DIR2B_TRACE_SYNTHETIC_HH
#define DIR2B_TRACE_SYNTHETIC_HH

#include <cstddef>
#include <vector>

#include "trace/reference.hh"
#include "util/random.hh"

namespace dir2b
{

/** Parameters of the merged private/shared reference model. */
struct SyntheticConfig
{
    /** Number of processors. */
    ProcId numProcs = 4;
    /** Probability a reference is to a writeable shared block (q). */
    double q = 0.05;
    /** Probability a shared reference is a write (w). */
    double w = 0.2;
    /** Number of writeable shared blocks (S). */
    std::size_t sharedBlocks = 16;
    /**
     * Temporal locality of the shared stream: probability that a
     * shared reference re-references the processor's previous shared
     * block instead of drawing uniformly.  0 reproduces the pure
     * uniform-1/S model of Table 4-2; higher values raise the shared
     * hit ratio h toward the levels §4.3 assumes.
     */
    double sharedLocality = 0.0;
    /** Private working-set size per processor, in blocks. */
    std::size_t privateBlocks = 256;
    /** Fraction of private references to the hot subset. */
    double hotFraction = 0.9;
    /** Size of the hot subset, in blocks. */
    std::size_t hotBlocks = 32;
    /** Probability a private reference is a write. */
    double privateWriteFrac = 0.25;
    /** Random seed. */
    std::uint64_t seed = 42;
    /**
     * When nonzero, hash-scatter every emitted block address
     * uniformly over [0, spaceBlocks) instead of the compact
     * shared/private region layout — the knob that lets a small
     * working set exercise a billion-block directory (tiered-store
     * experiments sweep this to 2^32).  The scatter is a fixed
     * SplitMix64 permutation, so streams stay deterministic and the
     * locality structure (which blocks recur) is unchanged; only
     * WHERE the blocks land moves.  Distinct classic addresses can
     * collide after the modulo, so keep spaceBlocks well above the
     * total working set.  0 (the default) emits the classic layout —
     * all checked-in digests use it.  Region-based classification
     * (the software scheme's nonCacheableBase) does not apply to
     * scattered addresses.
     */
    std::uint64_t spaceBlocks = 0;
};

/**
 * The timed tools' workload (trace_dump, bench_timed): shared writes
 * at w = 0.3 over 16 shared blocks with locality 0.9, and a 96-block
 * private set with a 24-block hot subset; q and the seed vary.
 */
SyntheticConfig timedSyntheticConfig(ProcId procs, double q,
                                     std::uint64_t seed);

/** Infinite merged-stream generator; round-robin across processors. */
class SyntheticStream : public RefStream
{
  public:
    explicit SyntheticStream(const SyntheticConfig &cfg);

    std::optional<MemRef> next() override;

    /**
     * Generate the next reference for a specific processor.  All
     * mutable state is per-processor, so concurrent calls for
     * DISTINCT processors are safe.
     */
    MemRef nextFor(ProcId p);

    const SyntheticConfig &config() const { return cfg_; }

    /** Fraction of emitted references that went to shared blocks. */
    double measuredSharedFraction() const;

  private:
    /** Apply the spaceBlocks scatter (identity when the knob is 0). */
    Addr scatter(Addr a) const;

    SyntheticConfig cfg_;
    /** The draws' fixed bounds, precomputed so that a reference takes
     *  no division.  hotBound_ and spaceBound_ hold 1 when their knob
     *  is 0, and are then never used. */
    RangeBound sharedBound_;
    RangeBound hotBound_;
    RangeBound privateBound_;
    RangeBound spaceBound_;
    std::vector<Rng> rngs_;
    std::vector<Addr> lastShared_;
    ProcId turn_ = 0;
    /** Per-processor tallies (no cross-thread sharing in nextFor). */
    std::vector<std::uint64_t> total_;
    std::vector<std::uint64_t> shared_;
};

} // namespace dir2b

#endif // DIR2B_TRACE_SYNTHETIC_HH
