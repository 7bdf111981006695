/**
 * @file
 * Unit tests for util: PRNG, bit operations, dynamic bitset, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/bitops.hh"
#include "util/bitset.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/ring_fifo.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace dir2b
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DistinctSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, RangeRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.range(13), 13u);
}

TEST(Rng, RangeCoversAllResidues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.range(10));
    EXPECT_EQ(seen.size(), 10u);
}

/** RangeBound::mod equals % for every shape of bound the remainder
 *  magic could get wrong, at the numerators around each bound and at
 *  the extremes; and range(RangeBound) draws exactly what
 *  range(uint64_t) draws from the same seed. */
TEST(Rng, BoundedDrawsMatchModulo)
{
    constexpr std::uint64_t top = ~std::uint64_t{0};
    std::vector<std::uint64_t> bounds = {1, 2, 3, top};
    for (int k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        bounds.insert(bounds.end(), {p - 1, p, p + 1});
    }
    Rng pick(31);
    for (int i = 0; i < 200; ++i) {
        // Random bounds of every width.
        const int width = static_cast<int>(pick.range(64)) + 1;
        const std::uint64_t b = pick.next() >> (64 - width);
        bounds.push_back(b ? b : 1);
    }

    for (const std::uint64_t b : bounds) {
        const RangeBound bound(b);
        ASSERT_EQ(bound.threshold(), -b % b) << "b=" << b;
        const std::uint64_t xs[] = {0, b - 1, b, b + 1, top, top - b,
                                    pick.next(), pick.next()};
        for (const std::uint64_t x : xs)
            ASSERT_EQ(bound.mod(x), x % b) << "x=" << x << " b=" << b;
    }

    for (const std::uint64_t b : bounds) {
        Rng a(b);
        Rng c(b);
        const RangeBound bound(b);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(a.range(bound), c.range(b)) << "b=" << b;
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(13);
    const double p = 0.25;
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / trials, 3.0, 0.15);
}

TEST(Rng, SplitStreamsIndependent)
{
    Rng parent(17);
    Rng a = parent.split();
    Rng b = parent.split();
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(BitOps, PowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1023));
}

TEST(BitOps, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(DynBitset, SetResetTest)
{
    DynBitset bs(100);
    EXPECT_TRUE(bs.none());
    bs.set(0);
    bs.set(63);
    bs.set(64);
    bs.set(99);
    EXPECT_TRUE(bs.test(0));
    EXPECT_TRUE(bs.test(63));
    EXPECT_TRUE(bs.test(64));
    EXPECT_TRUE(bs.test(99));
    EXPECT_FALSE(bs.test(1));
    EXPECT_EQ(bs.count(), 4u);
    bs.reset(63);
    EXPECT_FALSE(bs.test(63));
    EXPECT_EQ(bs.count(), 3u);
}

TEST(DynBitset, FindFirstAndNext)
{
    DynBitset bs(130);
    EXPECT_EQ(bs.findFirst(), 130u);
    bs.set(5);
    bs.set(64);
    bs.set(129);
    EXPECT_EQ(bs.findFirst(), 5u);
    EXPECT_EQ(bs.findNext(5), 64u);
    EXPECT_EQ(bs.findNext(64), 129u);
    EXPECT_EQ(bs.findNext(129), 130u);
}

TEST(DynBitset, IterationVisitsExactlySetBits)
{
    DynBitset bs(200);
    std::set<std::size_t> want = {0, 1, 63, 64, 65, 127, 128, 199};
    for (auto i : want)
        bs.set(i);
    std::set<std::size_t> got;
    for (std::size_t i = bs.findFirst(); i < bs.size();
         i = bs.findNext(i)) {
        got.insert(i);
    }
    EXPECT_EQ(got, want);
}

TEST(DynBitset, ClearEmptiesEverything)
{
    DynBitset bs(70);
    bs.set(3);
    bs.set(69);
    bs.clear();
    EXPECT_TRUE(bs.none());
    EXPECT_EQ(bs.count(), 0u);
}

TEST(InitialValue, DeterministicAndDistinct)
{
    EXPECT_EQ(initialValue(42), initialValue(42));
    std::set<Value> values;
    for (Addr a = 0; a < 1000; ++a)
        values.insert(initialValue(a));
    EXPECT_EQ(values.size(), 1000u);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"n:", "4", "8"});
    t.addRow({"w = 0.1", "0.000", "0.005"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("w = 0.1"), std::string::npos);
    EXPECT_NE(out.find("0.005"), std::string::npos);
}

TEST(TextTable, NumFormatsThreeDecimals)
{
    EXPECT_EQ(TextTable::num(0.9695), "0.970");
    EXPECT_EQ(TextTable::num(57.3301), "57.330");
    EXPECT_EQ(TextTable::num(0.0004), "0.000");
}

TEST(Logging, DebugSinkTurnsDeliveryOnAndOff)
{
    std::vector<std::string> got;
    EXPECT_FALSE(detail::debugEnabled());
    setDebugSink([&got](const std::string &m) { got.push_back(m); });
    EXPECT_TRUE(detail::debugEnabled());
    DIR2B_DEBUG("seen ", 1);
    setDebugSink(nullptr);
    EXPECT_FALSE(detail::debugEnabled());
    DIR2B_DEBUG("unseen");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], "seen 1");
}

TEST(Logging, DebugLevelTurnsDeliveryOnAndOff)
{
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(detail::debugEnabled());
    setLogLevel(LogLevel::Warn);
    EXPECT_FALSE(detail::debugEnabled());
}

TEST(RingFifo, KeepsOrderAcrossWrapGrowthAndErase)
{
    // Mirror every operation on a std::deque; the ring must agree
    // element for element while it wraps, grows and erases from
    // the front, the back and the middle.
    RingFifo<int> ring;
    std::deque<int> ref;
    Rng rng(5);
    int next = 0;
    for (int step = 0; step < 5000; ++step) {
        if (ref.empty() || rng.chance(0.55)) {
            ring.push_back(next);
            ref.push_back(next++);
        } else {
            const std::size_t i = rng.range(ref.size());
            ring.erase(i);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "step " << step;
    }
}

TEST(RingFifo, EraseIfKeepsSurvivorOrder)
{
    // Pops advance the head, so the filtered runs wrap the array.
    RingFifo<int> ring;
    std::deque<int> ref;
    Rng rng(9);
    int next = 0;
    for (int step = 0; step < 3000; ++step) {
        if (ref.empty() || rng.chance(0.6)) {
            ring.push_back(next);
            ref.push_back(next++);
        } else if (rng.chance(0.9)) {
            ring.erase(0);
            ref.pop_front();
        } else {
            const int mod = 2 + static_cast<int>(rng.range(3));
            ring.eraseIf([mod](const int &v) { return v % mod == 0; });
            std::erase_if(ref, [mod](int v) { return v % mod == 0; });
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "step " << step;
    }
}

} // namespace
} // namespace dir2b
