/**
 * @file
 * The n private caches of one system, functional or timed, plus an
 * exact index of which caches hold each block.
 *
 * The two-bit scheme's cost is its broadcasts: every BROADINV and
 * BROADQUERY reaches all n-1 other caches, and most of those
 * deliveries find no copy (§4.2).  Counting such a delivery needs no
 * work at the cache that receives it, only arithmetic; the caches that
 * do hold the block are the only ones whose state changes.  The bank
 * keeps, for every resident block, a bitmap of its holders (one bit per
 * processor, ceil(n/64) words per block), so broadcasts, table guards
 * and owner searches cost O(holders) host work instead of O(n).  The
 * timed two-bit scheme runs only the holders' controllers; the timed
 * schemes with directed commands never ask, so they keep no index.
 *
 * The bank is the only code that can fill or invalidate a line, so the
 * index is exact by construction: protocols reach the arrays through
 * the bank's fill()/invalidate() and get read-only CacheArray views.
 * They may still rewrite a resident line's state (between valid
 * states) and value through lookup(); those never change presence.
 * checkIndex() re-derives the index from the arrays.
 *
 * Most blocks have one holder (private data), so a block's map entry
 * names its sole holder directly; a block gets a bitmap slot only when
 * a second cache fills it, and keeps that slot until its last copy
 * leaves.  A miss to a private block then costs one map erase and one
 * map insert.  The index is sized once, at the first fill, for
 * n x sets x ways resident lines (the most distinct blocks the caches
 * can hold), so it never rehashes or allocates after that.
 */

#ifndef DIR2B_CACHE_CACHE_BANK_HH
#define DIR2B_CACHE_CACHE_BANK_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace dir2b
{

/** n private cache arrays and their per-block holder index. */
class CacheBank
{
  public:
    /** n arrays of geometry geom, fewer than 2^31 lines in all (fatal
     *  otherwise).  A bank built without `indexed` keeps no holder
     *  index, so only its arrays may be read. */
    CacheBank(ProcId n, const CacheGeometry &geom, bool indexed = true);

    /** Read-only view of cache p (bounds-checked). */
    const CacheArray &array(ProcId p) const { return arrays_.at(p); }

    /** Find block a in cache p; see CacheArray::lookup. */
    CacheLine *
    lookup(ProcId p, Addr a, bool touch = true)
    {
        return arrays_[p].lookup(a, touch);
    }

    const CacheLine *
    peek(ProcId p, Addr a) const
    {
        return arrays_[p].peek(a);
    }

    /** The frame block a would occupy in cache p; the caller must
     *  invalidate a valid victim before fill().  A miss is about to
     *  update the index entries of a and of the victim, usually after
     *  slow directory work, so their loads start here. */
    CacheLine &
    victimFor(ProcId p, Addr a)
    {
        CacheLine &v = arrays_[p].victimFor(a);
        slotOf_.prefetch(a);
        if (v.valid())
            slotOf_.prefetch(v.addr);
        return v;
    }

    template <typename Fn>
    void
    forEachValid(ProcId p, const Fn &fn) const
    {
        arrays_[p].forEachValid(fn);
    }

    /** Install (or upgrade) block a in cache p and record p as a
     *  holder. */
    CacheLine &fill(ProcId p, Addr a, LineState st, Value v);

    /** Drop block a from cache p if present.  @return true if a copy
     *  was dropped. */
    bool invalidate(ProcId p, Addr a);

    /** Whether cache p holds block a (index read). */
    bool holds(ProcId p, Addr a) const;

    /** Number of caches other than `except` holding block a (pass
     *  invalidProc to count every holder). */
    std::size_t otherHolders(Addr a, ProcId except) const;

    /**
     * Call fn(p) for every cache p != except holding block a, in
     * ascending p.  fn may invalidate p's own copy (and nothing else:
     * no fill, no other cache's line) while the walk is in progress.
     */
    template <typename Fn>
    void
    forEachHolder(Addr a, ProcId except, Fn &&fn) const
    {
        const auto it = slotOf_.find(a);
        if (it == slotOf_.end())
            return;
        const std::uint32_t e = it->second;
        if (e & soleTag) {
            if ((e & ~soleTag) != except)
                fn(static_cast<ProcId>(e & ~soleTag));
            return;
        }
        const std::uint64_t *w = &words_[e * wordsPerBlock_];
        for (std::size_t i = 0; i < wordsPerBlock_; ++i) {
            std::uint64_t bits = w[i];
            if (except / 64 == i)
                bits &= ~(std::uint64_t{1} << (except % 64));
            while (bits) {
                fn(static_cast<ProcId>(i * 64 + std::countr_zero(bits)));
                bits &= bits - 1;
            }
        }
    }

    /** Write block a's holder bitmap (bit p of word p/64 set when
     *  cache p holds it) to out[0, ceil(n/64)). */
    void holderBitmap(Addr a, std::uint64_t *out) const;

    /** Caches holding block a, ascending. */
    std::vector<ProcId> holders(Addr a) const;

    /** Panic unless the index equals a brute-force scan of every
     *  array: same blocks, same holder sets, no leaked slot. */
    void checkIndex() const;

  private:
    /** A map entry with this bit set names the block's sole holder in
     *  its low bits; otherwise it is the block's slot in words_. */
    static constexpr std::uint32_t soleTag = std::uint32_t{1} << 31;

    /** Size the index for every line of every array (first fill). */
    void reserveIndex();

    /** A zeroed slot of wordsPerBlock_ words. */
    std::uint32_t takeSlot();

    void
    setBit(std::uint32_t slot, ProcId p)
    {
        words_[slot * wordsPerBlock_ + p / 64] |= std::uint64_t{1}
                                                  << (p % 64);
    }

    std::vector<CacheArray> arrays_;
    bool indexed_;
    std::size_t wordsPerBlock_;
    /** Total lines across the arrays: the most blocks ever indexed. */
    std::size_t lines_;
    /** Resident block -> soleTag | holder, or its slot in words_. */
    FlatMap<Addr, std::uint32_t> slotOf_;
    /** wordsPerBlock_ holder-bitmap words per slot ever used. */
    std::vector<std::uint64_t> words_;
    /** Used slots whose block left every cache (words all zero). */
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace dir2b

#endif // DIR2B_CACHE_CACHE_BANK_HH
