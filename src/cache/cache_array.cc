#include "cache/cache_array.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace dir2b
{

CacheArray::CacheArray(const CacheGeometry &geom)
    : geom_(geom),
      lines_(geom.sets * geom.ways),
      stamp_(geom.sets * geom.ways, 0)
{
    if (!isPowerOf2(geom_.sets))
        DIR2B_FATAL("cache sets (", geom_.sets,
                    ") must be a power of two");
    if (geom_.ways == 0)
        DIR2B_FATAL("cache associativity must be at least 1");
}

CacheLine &
CacheArray::line(std::size_t set, std::size_t way)
{
    return lines_[set * geom_.ways + way];
}

const CacheLine &
CacheArray::line(std::size_t set, std::size_t way) const
{
    return lines_[set * geom_.ways + way];
}

std::optional<std::size_t>
CacheArray::findWay(std::size_t set, Addr a) const
{
    for (std::size_t w = 0; w < geom_.ways; ++w) {
        const CacheLine &l = line(set, w);
        if (l.valid() && l.addr == a)
            return w;
    }
    return std::nullopt;
}

CacheLine *
CacheArray::lookup(Addr a, bool touch)
{
    const std::size_t set = setIndex(a);
    auto way = findWay(set, a);
    if (!way)
        return nullptr;
    if (touch)
        use(set * geom_.ways + *way);
    return &line(set, *way);
}

const CacheLine *
CacheArray::peek(Addr a) const
{
    auto way = findWay(setIndex(a), a);
    return way ? &line(setIndex(a), *way) : nullptr;
}

CacheLine &
CacheArray::victimFor(Addr a)
{
    const std::size_t set = setIndex(a);
    DIR2B_ASSERT(!findWay(set, a),
                 "victimFor() on a block that is already resident");
    // The first way with the least stamp (see stamp_).
    const std::size_t first = set * geom_.ways;
    std::size_t best = first;
    for (std::size_t i = first + 1; i < first + geom_.ways; ++i) {
        if (stamp_[i] < stamp_[best])
            best = i;
    }
    return lines_[best];
}

CacheLine &
CacheArray::fill(Addr a, LineState state, Value value)
{
    DIR2B_ASSERT(state != LineState::Invalid, "fill with Invalid state");
    const std::size_t set = setIndex(a);

    // Upgrade fill of an already-resident block.
    if (auto way = findWay(set, a)) {
        CacheLine &l = line(set, *way);
        l.state = state;
        l.value = value;
        use(set * geom_.ways + *way);
        return l;
    }

    CacheLine &frame = victimFor(a);
    DIR2B_ASSERT(!frame.valid(),
                 "fill over an unhandled valid victim (", frame.addr, ")");
    frame.addr = a;
    frame.state = state;
    frame.value = value;
    use(static_cast<std::size_t>(&frame - lines_.data()));
    return frame;
}

bool
CacheArray::invalidate(Addr a)
{
    CacheLine *l = lookup(a, false);
    if (!l)
        return false;
    l->state = LineState::Invalid;
    l->addr = invalidAddr;
    stamp_[static_cast<std::size_t>(l - lines_.data())] = 0;
    return true;
}

std::size_t
CacheArray::validCount() const
{
    std::size_t n = 0;
    for (const auto &l : lines_) {
        if (l.valid())
            ++n;
    }
    return n;
}

void
CacheArray::forEachValid(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &l : lines_) {
        if (l.valid())
            fn(l);
    }
}

void
CacheArray::flush()
{
    for (auto &l : lines_) {
        l.state = LineState::Invalid;
        l.addr = invalidAddr;
    }
    std::fill(stamp_.begin(), stamp_.end(), 0);
}

} // namespace dir2b
