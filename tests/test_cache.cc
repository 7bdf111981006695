/**
 * @file
 * Unit tests for the set-associative cache array and replacement
 * policies.
 */

#include <gtest/gtest.h>

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
geom(std::size_t sets, std::size_t ways,
     ReplPolicyKind repl = ReplPolicyKind::Lru)
{
    CacheGeometry g;
    g.sets = sets;
    g.ways = ways;
    g.repl = repl;
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

TEST(CacheArray, FifoIgnoresTouches)
{
    CacheArray c(geom(1, 2, ReplPolicyKind::Fifo));
    c.fill(10, LineState::Shared, 0);
    c.fill(20, LineState::Shared, 0);
    c.lookup(10); // FIFO must still evict 10 (inserted first)
    CacheLine &v = c.victimFor(30);
    EXPECT_TRUE(v.valid());
    EXPECT_EQ(v.addr, 10u);
}

TEST(CacheArray, RandomVictimIsValidWay)
{
    CacheArray c(geom(1, 4, ReplPolicyKind::Random));
    for (Addr a = 0; a < 4; ++a)
        c.fill(a * 1, LineState::Shared, 0);
    // All ways full; victim must be one of the four resident blocks.
    std::set<Addr> resident = {0, 1, 2, 3};
    CacheLine &v = c.victimFor(100);
    EXPECT_TRUE(resident.count(v.addr));
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

TEST(ReplacementPolicy, ParseNames)
{
    EXPECT_EQ(parseReplPolicy("lru"), ReplPolicyKind::Lru);
    EXPECT_EQ(parseReplPolicy("fifo"), ReplPolicyKind::Fifo);
    EXPECT_EQ(parseReplPolicy("random"), ReplPolicyKind::Random);
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
