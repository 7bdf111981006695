/**
 * @file
 * Unit tests for the set-associative cache array, its LRU
 * replacement and the cache bank's holder index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/cache_bank.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

CacheGeometry
geom(std::size_t sets, std::size_t ways)
{
    CacheGeometry g;
    g.sets = sets;
    g.ways = ways;
    return g;
}

TEST(CacheArray, MissThenFillThenHit)
{
    CacheArray c(geom(4, 2));
    EXPECT_EQ(c.lookup(100), nullptr);
    c.fill(100, LineState::Shared, 7);
    CacheLine *l = c.lookup(100);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->value, 7u);
    EXPECT_EQ(l->state, LineState::Shared);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    CacheArray c(geom(4, 1));
    c.fill(0, LineState::Shared, 1); // set 0
    c.fill(1, LineState::Shared, 2); // set 1
    c.fill(2, LineState::Shared, 3); // set 2
    EXPECT_EQ(c.validCount(), 3u);
    EXPECT_NE(c.lookup(0), nullptr);
    EXPECT_NE(c.lookup(1), nullptr);
    EXPECT_NE(c.lookup(2), nullptr);
}

TEST(CacheArray, VictimPrefersInvalidWay)
{
    CacheArray c(geom(1, 4));
    c.fill(0, LineState::Shared, 0);
    c.fill(1, LineState::Shared, 0);
    CacheLine &v = c.victimFor(2);
    EXPECT_FALSE(v.valid());
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    CacheArray c(geom(1, 2));
    c.fill(10, LineState::Shared, 0);
    c.fill(20, LineState::Shared, 0);
    c.lookup(10); // touch 10; 20 is now LRU
    CacheLine &v = c.victimFor(30);
    EXPECT_TRUE(v.valid());
    EXPECT_EQ(v.addr, 20u);
}

TEST(CacheArray, FillAfterEvictionReplacesVictim)
{
    CacheArray c(geom(1, 1));
    c.fill(10, LineState::Modified, 5);
    CacheLine &v = c.victimFor(20);
    EXPECT_EQ(v.addr, 10u);
    EXPECT_TRUE(v.dirty());
    c.invalidate(v.addr);
    c.fill(20, LineState::Shared, 6);
    EXPECT_EQ(c.lookup(10), nullptr);
    ASSERT_NE(c.lookup(20), nullptr);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, UpgradeFillKeepsSingleCopy)
{
    CacheArray c(geom(2, 2));
    c.fill(42, LineState::Shared, 1);
    c.fill(42, LineState::Modified, 2);
    EXPECT_EQ(c.validCount(), 1u);
    CacheLine *l = c.lookup(42);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state, LineState::Modified);
    EXPECT_EQ(l->value, 2u);
}

TEST(CacheArray, InvalidateIsIdempotent)
{
    CacheArray c(geom(2, 2));
    c.fill(9, LineState::Shared, 0);
    EXPECT_TRUE(c.invalidate(9));
    EXPECT_FALSE(c.invalidate(9));
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(CacheArray, FlushDropsEverything)
{
    CacheArray c(geom(4, 2));
    for (Addr a = 0; a < 8; ++a)
        c.fill(a, LineState::Shared, a);
    EXPECT_GT(c.validCount(), 0u);
    c.flush();
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(CacheArray, ForEachValidSeesAllResidents)
{
    CacheArray c(geom(4, 2));
    std::set<Addr> want = {1, 2, 3, 7};
    for (Addr a : want)
        c.fill(a, LineState::Shared, a);
    std::set<Addr> got;
    c.forEachValid([&](const CacheLine &l) { got.insert(l.addr); });
    EXPECT_EQ(got, want);
}

TEST(CacheArray, PeekDoesNotPerturbLru)
{
    CacheArray c(geom(1, 2));
    c.fill(10, LineState::Shared, 0);
    c.fill(20, LineState::Shared, 0);
    // peek(10) must not promote 10.
    EXPECT_NE(c.peek(10), nullptr);
    CacheLine &v = c.victimFor(30);
    EXPECT_EQ(v.addr, 10u);
}

// A naive model of each set: which block each way holds, and the
// resident blocks from least to most recently used.  The frame a miss
// takes is the lowest-index free way, or else the LRU block's way;
// random churn through every entry point must agree with it.
TEST(CacheArray, VictimMatchesReferenceLru)
{
    struct Shape
    {
        std::size_t sets, ways;
    };
    for (const Shape shape : {Shape{1, 1}, Shape{1, 4}, Shape{4, 2},
                              Shape{8, 8}}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.sets << "x" << shape.ways);
        const std::size_t sets = shape.sets, ways = shape.ways;
        CacheArray c(geom(sets, ways));

        // Frame (set, way) is line set * ways + way: fill every line,
        // then read the frames back in storage order.
        for (Addr a = 0; a < sets * ways; ++a)
            c.fill(a, LineState::Shared, 0);
        std::vector<const CacheLine *> frame;
        c.forEachValid([&](const CacheLine &l) { frame.push_back(&l); });
        ASSERT_EQ(frame.size(), sets * ways);
        c.flush();

        std::vector<std::vector<Addr>> held(
            sets, std::vector<Addr>(ways, invalidAddr));
        std::vector<std::vector<Addr>> recency(sets); // LRU first
        std::size_t valid = 0;
        auto wayOf = [&](Addr a) {
            const auto &h = held[a % sets];
            return static_cast<std::size_t>(
                std::find(h.begin(), h.end(), a) - h.begin());
        };
        auto resident = [&](Addr a) { return wayOf(a) < ways; };
        auto frameOf = [&](Addr a) {
            return frame[a % sets * ways + wayOf(a)];
        };
        // The way a miss in this set takes.
        auto victimWay = [&](std::size_t set) {
            const auto &h = held[set];
            const auto freeWay = std::find(h.begin(), h.end(), invalidAddr);
            return freeWay != h.end()
                       ? static_cast<std::size_t>(freeWay - h.begin())
                       : wayOf(recency[set].front());
        };
        auto use = [&](Addr a) {
            auto &r = recency[a % sets];
            r.erase(std::find(r.begin(), r.end(), a));
            r.push_back(a);
        };
        auto drop = [&](Addr a) {
            auto &r = recency[a % sets];
            r.erase(std::find(r.begin(), r.end(), a));
            held[a % sets][wayOf(a)] = invalidAddr;
            --valid;
        };

        Rng rng(sets * 31 + ways);
        const Addr pool = sets * (2 * ways + 1);
        for (int step = 0; step < 4000; ++step) {
            SCOPED_TRACE(step);
            const Addr a = rng.range(pool);
            const std::size_t set = a % sets;
            const auto op = rng.range(100);
            if (op < 30) {
                const bool touch = rng.chance(0.5);
                CacheLine *l = c.lookup(a, touch);
                ASSERT_EQ(l != nullptr, resident(a));
                if (l) {
                    ASSERT_EQ(l, frameOf(a));
                    if (touch)
                        use(a);
                }
            } else if (op < 40) {
                const CacheLine *l = c.peek(a);
                ASSERT_EQ(l, resident(a) ? frameOf(a) : nullptr);
            } else if (op < 80) {
                if (resident(a)) { // upgrade fill
                    CacheLine &l = c.fill(a, LineState::Modified, 1);
                    ASSERT_EQ(&l, frameOf(a));
                    use(a);
                } else {
                    // Dropping a valid victim frees its way, the only
                    // free one, so the fill lands where victimFor said.
                    const std::size_t way = victimWay(set);
                    CacheLine &v = c.victimFor(a);
                    ASSERT_EQ(&v, frame[set * ways + way]);
                    if (v.valid()) {
                        const Addr old = v.addr;
                        ASSERT_TRUE(c.invalidate(old));
                        drop(old);
                    }
                    ASSERT_EQ(&c.fill(a, LineState::Shared, 0),
                              frame[set * ways + way]);
                    held[set][way] = a;
                    recency[set].push_back(a);
                    ++valid;
                }
            } else if (op < 99) {
                const bool was = resident(a);
                ASSERT_EQ(c.invalidate(a), was);
                if (was)
                    drop(a);
            } else {
                c.flush();
                for (std::size_t s = 0; s < sets; ++s) {
                    held[s].assign(ways, invalidAddr);
                    recency[s].clear();
                }
                valid = 0;
            }

            ASSERT_EQ(c.validCount(), valid);
            // A block beyond the pool is resident nowhere.
            for (std::size_t s = 0; s < sets; ++s) {
                ASSERT_EQ(&c.victimFor(pool * sets + s),
                          frame[s * ways + victimWay(s)]);
            }
        }
    }
}

TEST(CacheArray, GeometryBlocksProduct)
{
    CacheGeometry g = geom(32, 4);
    EXPECT_EQ(g.blocks(), 128u);
}

TEST(CacheBank, IndexFollowsFillsAndInvalidations)
{
    CacheBank bank(130, geom(4, 2));
    EXPECT_TRUE(bank.holders(9).empty());

    bank.fill(3, 9, LineState::Modified, 1);
    EXPECT_EQ(bank.holders(9), std::vector<ProcId>{3});
    EXPECT_TRUE(bank.holds(3, 9));
    EXPECT_FALSE(bank.holds(4, 9));
    EXPECT_EQ(bank.otherHolders(9, 3), 0u);
    EXPECT_EQ(bank.otherHolders(9, invalidProc), 1u);

    // An upgrade fill keeps a single holder.
    bank.fill(3, 9, LineState::Shared, 2);
    EXPECT_EQ(bank.holders(9), std::vector<ProcId>{3});

    // Holders on both sides of the 64- and 128-proc word boundaries.
    for (const ProcId p : {129u, 64u, 63u, 0u, 128u})
        bank.fill(p, 9, LineState::Shared, 2);
    EXPECT_EQ(bank.holders(9),
              (std::vector<ProcId>{0, 3, 63, 64, 128, 129}));
    EXPECT_EQ(bank.otherHolders(9, 64), 5u);
    EXPECT_EQ(bank.otherHolders(9, 65), 6u);
    std::vector<ProcId> walked;
    bank.forEachHolder(9, 63, [&](ProcId p) { walked.push_back(p); });
    EXPECT_EQ(walked, (std::vector<ProcId>{0, 3, 64, 128, 129}));
    bank.checkIndex();

    // A walk may drop each visited copy.
    bank.forEachHolder(9, 3, [&](ProcId p) { bank.invalidate(p, 9); });
    EXPECT_EQ(bank.holders(9), std::vector<ProcId>{3});
    EXPECT_TRUE(bank.invalidate(3, 9));
    EXPECT_FALSE(bank.invalidate(3, 9));
    EXPECT_TRUE(bank.holders(9).empty());
    bank.checkIndex();
}

TEST(CacheBank, IndexMatchesScanUnderRandomChurn)
{
    // Small caches and few blocks force evictions, slot reuse and
    // blocks moving between one and many holders.
    constexpr ProcId n = 70;
    CacheBank bank(n, geom(2, 2));
    Rng rng(11);
    for (int step = 0; step < 20000; ++step) {
        const auto p = static_cast<ProcId>(rng.range(n));
        const Addr a = rng.range(12);
        if (rng.chance(0.3)) {
            bank.invalidate(p, a);
        } else if (!bank.peek(p, a)) {
            CacheLine &victim = bank.victimFor(p, a);
            if (victim.valid())
                bank.invalidate(p, victim.addr);
            bank.fill(p, a, LineState::Shared, 0);
        }
        std::vector<ProcId> want;
        for (ProcId q = 0; q < n; ++q) {
            if (bank.peek(q, a))
                want.push_back(q);
        }
        ASSERT_EQ(bank.holders(a), want) << "step " << step;
        if (step % 500 == 0)
            bank.checkIndex();
    }
    bank.checkIndex();
}

using CacheBankDeathTest = ::testing::Test;

// The planted bug: a fill that reaches an array without going through
// the bank leaves the index stale, and the cross-check must say so.
TEST(CacheBankDeathTest, FillBypassingTheIndexIsCaught)
{
    CacheBank bank(4, geom(4, 2));
    bank.fill(0, 5, LineState::Shared, 1);
    bank.checkIndex();
    auto &raw = const_cast<CacheArray &>(bank.array(2));
    raw.fill(5, LineState::Shared, 1);
    EXPECT_DEATH(bank.checkIndex(), "holder index of block 5");
    raw.fill(6, LineState::Shared, 1);
    EXPECT_DEATH(bank.checkIndex(), "holder index lists 1 blocks");
}

TEST(LineState, ToStringCoversAll)
{
    EXPECT_EQ(toString(LineState::Invalid), "Invalid");
    EXPECT_EQ(toString(LineState::Shared), "Shared");
    EXPECT_EQ(toString(LineState::Exclusive), "Exclusive");
    EXPECT_EQ(toString(LineState::Reserved), "Reserved");
    EXPECT_EQ(toString(LineState::Modified), "Modified");
}

} // namespace
} // namespace dir2b
