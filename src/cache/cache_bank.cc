#include "cache/cache_bank.hh"

#include <algorithm>
#include <unordered_map>

#include "util/logging.hh"

namespace dir2b
{

namespace
{

/** The bank's line count, n x geom.blocks().  Fatal, before anything
 *  is allocated, unless it and n are below 2^31, the holder index's
 *  limit.  No product below wraps: each factor is at most 2^31 by the
 *  time it is multiplied. */
std::size_t
bankLines(ProcId n, const CacheGeometry &geom)
{
    constexpr std::size_t limit = std::size_t{1} << 31;
    if (n >= limit || geom.sets > limit || geom.ways > limit ||
        geom.sets * geom.ways > limit ||
        n * (geom.sets * geom.ways) >= limit) {
        DIR2B_FATAL("cache geometry too large: ", n, " processors x ",
                    geom.sets, " sets x ", geom.ways,
                    " ways; the holder index takes fewer than 2^31 "
                    "lines and processors");
    }
    return n * geom.blocks();
}

} // namespace

CacheBank::CacheBank(ProcId n, const CacheGeometry &geom, bool indexed)
    : indexed_(indexed),
      wordsPerBlock_((std::size_t{n} + 63) / 64),
      lines_(bankLines(n, geom))
{
    arrays_.reserve(n);
    for (ProcId p = 0; p < n; ++p)
        arrays_.emplace_back(geom);
}

void
CacheBank::reserveIndex()
{
    // Nothing below ever grows again: at most one key and one slot per
    // resident line.  The map's one spare entry covers an upgrade fill
    // (a tryEmplace of a present key) when every line holds a distinct
    // block.
    slotOf_.reserve(lines_ + 1);
    words_.reserve(lines_ * wordsPerBlock_);
    freeSlots_.reserve(lines_);
}

std::uint32_t
CacheBank::takeSlot()
{
    if (freeSlots_.empty()) {
        const auto slot =
            static_cast<std::uint32_t>(words_.size() / wordsPerBlock_);
        words_.resize(words_.size() + wordsPerBlock_, 0);
        return slot;
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    return slot;
}

CacheLine &
CacheBank::fill(ProcId p, Addr a, LineState st, Value v)
{
    CacheLine &l = arrays_[p].fill(a, st, v);
    if (!indexed_)
        return l;
    // The index is sized on first use, so building a system (say, one
    // cell of a sweep) costs no more than its arrays.
    if (words_.capacity() == 0)
        reserveIndex();
    auto [it, fresh] = slotOf_.tryEmplace(a, soleTag | p);
    if (fresh)
        return l;
    std::uint32_t &e = it->second;
    if (e & soleTag) {
        const ProcId q = e & ~soleTag;
        if (q == p)
            return l; // upgrade fill
        e = takeSlot();
        setBit(e, q);
    }
    setBit(e, p);
    return l;
}

bool
CacheBank::invalidate(ProcId p, Addr a)
{
    if (!arrays_[p].invalidate(a))
        return false;
    if (!indexed_)
        return true;
    const auto it = slotOf_.find(a);
    DIR2B_ASSERT(it != slotOf_.end(), "cache ", p, " held block ", a,
                 " but the holder index had no entry for it");
    const std::uint32_t e = it->second;
    if (e & soleTag) {
        DIR2B_ASSERT(e == (soleTag | p), "cache ", p, " held block ", a,
                     " but the holder index names cache ", e & ~soleTag);
        slotOf_.erase(it);
        return true;
    }
    std::uint64_t *w = &words_[e * wordsPerBlock_];
    w[p / 64] &= ~(std::uint64_t{1} << (p % 64));
    for (std::size_t i = 0; i < wordsPerBlock_; ++i) {
        if (w[i])
            return true;
    }
    slotOf_.erase(it);
    freeSlots_.push_back(e);
    return true;
}

bool
CacheBank::holds(ProcId p, Addr a) const
{
    const auto it = slotOf_.find(a);
    if (it == slotOf_.end())
        return false;
    const std::uint32_t e = it->second;
    if (e & soleTag)
        return e == (soleTag | p);
    return words_[e * wordsPerBlock_ + p / 64] >> (p % 64) & 1;
}

std::size_t
CacheBank::otherHolders(Addr a, ProcId except) const
{
    const auto it = slotOf_.find(a);
    if (it == slotOf_.end())
        return 0;
    const std::uint32_t e = it->second;
    if (e & soleTag)
        return e == (soleTag | except) ? 0 : 1;
    const std::uint64_t *w = &words_[e * wordsPerBlock_];
    std::size_t n = 0;
    for (std::size_t i = 0; i < wordsPerBlock_; ++i)
        n += static_cast<std::size_t>(std::popcount(w[i]));
    if (except != invalidProc && (w[except / 64] >> (except % 64) & 1))
        --n;
    return n;
}

void
CacheBank::holderBitmap(Addr a, std::uint64_t *out) const
{
    std::fill_n(out, wordsPerBlock_, 0);
    forEachHolder(a, invalidProc, [out](ProcId p) {
        out[p / 64] |= std::uint64_t{1} << (p % 64);
    });
}

std::vector<ProcId>
CacheBank::holders(Addr a) const
{
    std::vector<ProcId> out;
    forEachHolder(a, invalidProc, [&](ProcId p) { out.push_back(p); });
    return out;
}

void
CacheBank::checkIndex() const
{
    std::unordered_map<Addr, std::vector<ProcId>> scan;
    for (ProcId p = 0; p < arrays_.size(); ++p) {
        arrays_[p].forEachValid(
            [&](const CacheLine &l) { scan[l.addr].push_back(p); });
    }
    DIR2B_ASSERT(slotOf_.size() == scan.size(), "holder index lists ",
                 slotOf_.size(), " blocks but the caches hold ",
                 scan.size());
    std::size_t slotted = 0;
    for (const auto &[a, e] : slotOf_)
        slotted += (e & soleTag) ? 0 : 1;
    const std::size_t slots = words_.size() / wordsPerBlock_;
    DIR2B_ASSERT(slotted + freeSlots_.size() == slots,
                 "holder index leaked slots: ", slotted, " used + ",
                 freeSlots_.size(), " free of ", slots);
    for (const auto &[a, want] : scan) {
        DIR2B_ASSERT(slotOf_.contains(a), "block ", a,
                     " is cached but missing from the holder index");
        const std::vector<ProcId> got = holders(a);
        DIR2B_ASSERT(got == want, "holder index of block ", a, " lists ",
                     got.size(), " holder(s), first ",
                     got.empty() ? invalidProc : got.front(),
                     ", but the caches hold ", want.size(), ", first ",
                     want.front());
    }
    for (const std::uint32_t slot : freeSlots_) {
        for (std::size_t i = 0; i < wordsPerBlock_; ++i) {
            DIR2B_ASSERT(words_[slot * wordsPerBlock_ + i] == 0,
                         "free holder slot ", slot, " is not zeroed");
        }
    }
}

} // namespace dir2b
