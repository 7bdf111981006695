/**
 * @file
 * Set-associative cache array.
 *
 * This is the storage half of a private cache C_k from the paper's
 * Figure 3-1: tags, local state bits (valid/modified and protocol
 * extensions) and the modelled block contents.  Protocol logic lives in
 * the controllers; the array only answers lookups, applies fills and
 * evictions, and keeps each line's LRU recency: a miss evicts the
 * least recently used block of its set.
 */

#ifndef DIR2B_CACHE_CACHE_ARRAY_HH
#define DIR2B_CACHE_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cache/cache_types.hh"
#include "util/types.hh"

namespace dir2b
{

/** Geometry of one cache. */
struct CacheGeometry
{
    /** Number of sets; must be a power of two. */
    std::size_t sets = 32;
    /** Associativity. */
    std::size_t ways = 4;

    std::size_t blocks() const { return sets * ways; }
};

/** Tag/state/data storage of one private cache. */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom);

    /**
     * Find the line holding block a.
     * @param touch make the line most recently used on hit
     * @return pointer into the array, or nullptr on miss
     */
    CacheLine *lookup(Addr a, bool touch = true);
    const CacheLine *peek(Addr a) const;

    /**
     * Choose the frame that block a would occupy: the lowest-index
     * invalid way if one exists, otherwise the least recently used
     * way.  Does not modify the array; the caller inspects the
     * returned line (possibly a valid victim needing eviction) and
     * then calls fill().
     */
    CacheLine &victimFor(Addr a);

    /**
     * Install block a in the frame victimFor(a) chose (or re-use the
     * existing line on an upgrade fill).  Any valid prior occupant must
     * already have been handled by the caller.
     */
    CacheLine &fill(Addr a, LineState state, Value value);

    /** Drop block a if present (invalidate). @return true if dropped. */
    bool invalidate(Addr a);

    /** Number of valid lines currently resident. */
    std::size_t validCount() const;

    /** Invoke fn on every valid line. */
    void forEachValid(const std::function<void(const CacheLine &)> &fn)
        const;

    /** Drop every line (cache flush, e.g. at context switch). */
    void flush();

    const CacheGeometry &geometry() const { return geom_; }

  private:
    std::size_t setIndex(Addr a) const { return a & (geom_.sets - 1); }
    CacheLine &line(std::size_t set, std::size_t way);
    const CacheLine &line(std::size_t set, std::size_t way) const;
    std::optional<std::size_t> findWay(std::size_t set, Addr a) const;
    /** Make lines_[i] the most recently used line of its set. */
    void use(std::size_t i) { stamp_[i] = ++clock_; }

    CacheGeometry geom_;
    std::vector<CacheLine> lines_;
    /** Per line: the clock at its last fill or touching lookup, or 0
     *  while the line is invalid.  Valid lines' stamps are distinct
     *  and at least 1, so a set's first minimum-stamp way is its
     *  lowest invalid way if it has one and its LRU way otherwise. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

} // namespace dir2b

#endif // DIR2B_CACHE_CACHE_ARRAY_HH
