/**
 * @file
 * Tests for the hot-path storage primitives: FlatMap (open addressing
 * with backward-shift deletion) and the InlineFunction event callback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hh"
#include "util/inline_function.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), m.end());

    m[7] = 70;
    m[8] = 80;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(7)->second, 70);
    EXPECT_EQ(m.find(8)->second, 80);
    EXPECT_EQ(m.count(9), 0u);

    m[7] = 71;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.find(7)->second, 71);

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_EQ(m.find(8)->second, 80);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TryEmplaceNonDefaultConstructible)
{
    struct NoDefault
    {
        explicit NoDefault(int x) : v(x) {}
        int v;
    };
    FlatMap<std::uint64_t, NoDefault> m;
    auto [it, fresh] = m.tryEmplace(3, 42);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(it->second.v, 42);
    auto [it2, fresh2] = m.tryEmplace(3, 99);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second.v, 42);
}

TEST(FlatMap, EraseByIterator)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 10; ++k)
        m[k] = static_cast<int>(k);
    auto it = m.find(4);
    ASSERT_NE(it, m.end());
    m.erase(it);
    EXPECT_EQ(m.size(), 9u);
    EXPECT_EQ(m.find(4), m.end());
    for (std::uint64_t k = 0; k < 10; ++k) {
        if (k != 4) {
            EXPECT_EQ(m.find(k)->second, static_cast<int>(k));
        }
    }
}

TEST(FlatMap, IterationVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k * 97 + 13] = k;
    std::uint64_t visited = 0;
    std::uint64_t keySum = 0;
    for (const auto &[k, v] : m) {
        ++visited;
        keySum += k;
        EXPECT_EQ((k - 13) / 97, v);
    }
    EXPECT_EQ(visited, 100u);
    std::uint64_t expect = 0;
    for (std::uint64_t k = 0; k < 100; ++k)
        expect += k * 97 + 13;
    EXPECT_EQ(keySum, expect);
}

TEST(FlatMap, DifferentialAgainstUnorderedMap)
{
    // Randomised insert/overwrite/erase mix over a small key space to
    // force dense clusters, wraparound probes, and backward shifts.
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0xf1a7f1a7ULL);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t key = rng.range(256);
        switch (rng.range(3)) {
          case 0:
            m[key] = static_cast<std::uint64_t>(step);
            ref[key] = static_cast<std::uint64_t>(step);
            break;
          case 1:
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
            break;
          case 2: {
            auto it = m.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it == m.end(), rit == ref.end());
            if (rit != ref.end()) {
                EXPECT_EQ(it->second, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), ref.size());
    }
    for (const auto &[k, v] : ref)
        EXPECT_EQ(m.find(k)->second, v);
}

TEST(FlatMap, MoveSemantics)
{
    FlatMap<std::uint64_t, int> a;
    a[1] = 10;
    a[2] = 20;
    FlatMap<std::uint64_t, int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.find(1)->second, 10);
    EXPECT_TRUE(a.empty());

    FlatMap<std::uint64_t, int> c;
    c[9] = 90;
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.find(2)->second, 20);
}

TEST(FlatMap, ClearAndReuse)
{
    FlatMap<std::uint64_t, std::string> m;
    for (std::uint64_t k = 0; k < 50; ++k)
        m.tryEmplace(k, "v" + std::to_string(k));
    m.clear();
    EXPECT_TRUE(m.empty());
    m.tryEmplace(3, "fresh");
    EXPECT_EQ(m.find(3)->second, "fresh");
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ReserveMeansNoRehash)
{
    constexpr std::uint64_t n = 1000;
    FlatMap<std::uint64_t, std::uint32_t> m;
    m.reserve(n);
    const std::size_t cap = m.capacityBytes();
    EXPECT_GT(cap, 0u);

    // A rehash would move every entry: the first entry's address
    // staying put proves none happened while filling to n.
    m[0] = 0;
    const std::uint32_t *first = &m.find(0)->second;
    for (std::uint64_t k = 1; k < n; ++k)
        m[k] = static_cast<std::uint32_t>(k);
    EXPECT_EQ(m.size(), n);
    EXPECT_EQ(m.capacityBytes(), cap);
    EXPECT_EQ(&m.find(0)->second, first);

    // Steady-state churn at full size never grows the table either.
    Rng rng(7);
    std::uint64_t next = n;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t victim = next - n + rng.range(n);
        if (m.erase(victim))
            m[next++] = 1;
        ASSERT_LE(m.size(), n);
    }
    EXPECT_EQ(m.capacityBytes(), cap);

    // A smaller reserve never shrinks.
    m.reserve(10);
    EXPECT_EQ(m.capacityBytes(), cap);
}

TEST(InlineFunction, InvokesAndMoves)
{
    int hits = 0;
    InlineFunction<64> f([&hits] { ++hits; });
    ASSERT_TRUE(static_cast<bool>(f));
    f();
    EXPECT_EQ(hits, 1);

    InlineFunction<64> g(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    g();
    EXPECT_EQ(hits, 2);

    g.reset();
    EXPECT_FALSE(static_cast<bool>(g));
}

/** Callable that counts copies and moves of itself. */
struct CopyCounter
{
    int *copies;
    int *moves;
    CopyCounter(int *c, int *m) : copies(c), moves(m) {}
    CopyCounter(const CopyCounter &o) : copies(o.copies), moves(o.moves)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&o) noexcept
        : copies(o.copies), moves(o.moves)
    {
        ++*moves;
    }
    void operator()() {}
};

TEST(InlineFunction, NeverCopiesTheCallable)
{
    int copies = 0;
    int moves = 0;
    CopyCounter c(&copies, &moves);
    InlineFunction<64> f(std::move(c));
    InlineFunction<64> g(std::move(f));
    g();
    EXPECT_EQ(copies, 0);
    EXPECT_GE(moves, 1);
}

TEST(InlineFunction, HeapFallbackForOversizedCaptures)
{
    const std::uint64_t before = InlineFunction<32>::heapFallbacks();
    char big[128] = {1};
    int out = 0;
    InlineFunction<32> f([big, &out] { out = big[0]; });
    EXPECT_EQ(InlineFunction<32>::heapFallbacks(), before + 1);
    InlineFunction<32> g(std::move(f));
    g();
    EXPECT_EQ(out, 1);

    // Small captures stay inline.
    const std::uint64_t mid = InlineFunction<32>::heapFallbacks();
    InlineFunction<32> h([&out] { out = 2; });
    h();
    EXPECT_EQ(out, 2);
    EXPECT_EQ(InlineFunction<32>::heapFallbacks(), mid);
}

} // namespace
} // namespace dir2b
