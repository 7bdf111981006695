/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/stats.hh"

namespace dir2b
{
namespace
{

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    ++c;
    EXPECT_EQ(c.value(), 43u);
    c += 7;
    EXPECT_EQ(c.value(), 50u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsAndMoments)
{
    Histogram h(10, 4); // buckets [0,10), [10,20), [20,30), [30,40), of
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(35);
    h.sample(1000); // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(4), 1u); // overflow bucket
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_NEAR(h.mean(), (0 + 9 + 10 + 35 + 1000) / 5.0, 1e-9);
}

TEST(Histogram, Percentile)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_LE(h.percentile(0.5), 51u);
    EXPECT_GE(h.percentile(0.5), 49u);
    EXPECT_EQ(h.percentile(1.0), 99u);
}

TEST(Histogram, PercentileShortcuts)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.sample(v);
    EXPECT_EQ(h.p50(), h.percentile(0.50));
    EXPECT_EQ(h.p95(), h.percentile(0.95));
    EXPECT_EQ(h.p99(), h.percentile(0.99));
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_GE(h.p95(), 90u);
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h(1, 8);
    EXPECT_EQ(h.p50(), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, MergeCombinesDistributions)
{
    Histogram a(1, 16);
    Histogram b(1, 16);
    for (std::uint64_t v = 0; v < 8; ++v)
        a.sample(v);
    for (std::uint64_t v = 8; v < 16; ++v)
        b.sample(v);

    Histogram whole(1, 16);
    for (std::uint64_t v = 0; v < 16; ++v)
        whole.sample(v);

    a.merge(b);
    EXPECT_EQ(a.samples(), whole.samples());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
    EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
    for (std::size_t i = 0; i <= 16; ++i)
        EXPECT_EQ(a.bucket(i), whole.bucket(i)) << "bucket " << i;
    EXPECT_EQ(a.p50(), whole.p50());
    EXPECT_EQ(a.p99(), whole.p99());
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    Histogram a(2, 8);
    a.sample(3);
    a.sample(7);
    const auto samples = a.samples();
    const auto mn = a.min();
    const auto mx = a.max();

    Histogram empty(2, 8);
    a.merge(empty); // empty rhs: no-op
    EXPECT_EQ(a.samples(), samples);
    EXPECT_EQ(a.min(), mn);
    EXPECT_EQ(a.max(), mx);

    Histogram fresh(2, 8); // empty lhs adopts rhs min/max
    fresh.merge(a);
    EXPECT_EQ(fresh.samples(), samples);
    EXPECT_EQ(fresh.min(), mn);
    EXPECT_EQ(fresh.max(), mx);
}

TEST(Histogram, MergeEmptyIntoEmptyStaysEmpty)
{
    Histogram a(2, 8);
    Histogram b(2, 8);
    a.merge(b);
    EXPECT_EQ(a.samples(), 0u);
    EXPECT_EQ(a.min(), 0u);
    EXPECT_EQ(a.max(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.percentile(0.99), 0u);
}

TEST(Histogram, MergeSingleSampleIntoEmptyMatchesOriginal)
{
    Histogram single(1, 100);
    single.sample(7);

    Histogram merged(1, 100);
    merged.merge(single);
    EXPECT_EQ(merged.samples(), 1u);
    EXPECT_EQ(merged.min(), 7u);
    EXPECT_EQ(merged.max(), 7u);
    EXPECT_EQ(merged.mean(), 7.0);
    EXPECT_EQ(merged.percentile(1.0), 7u);
    // Percentiles of a one-sample distribution never exceed the
    // sample.
    EXPECT_LE(merged.p50(), 7u);
    EXPECT_LE(merged.p99(), 7u);
}

TEST(Histogram, MergeAccumulatesOverflowBucket)
{
    Histogram a(1, 4); // regular buckets [0,1)..[3,4), last = overflow
    Histogram b(1, 4);
    a.sample(100);
    b.sample(200);
    b.sample(300);
    a.merge(b);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_EQ(a.bucket(a.numBuckets() - 1), 3u);
    EXPECT_EQ(a.min(), 100u);
    EXPECT_EQ(a.max(), 300u);
    // The overflow bucket reports the true maximum, not a bucket edge.
    EXPECT_EQ(a.percentile(1.0), 300u);
}

TEST(Histogram, MergeIsCommutativeOnMoments)
{
    Histogram a(2, 8);
    Histogram b(2, 8);
    for (std::uint64_t v : {1u, 5u, 9u})
        a.sample(v);
    for (std::uint64_t v : {3u, 15u})
        b.sample(v);

    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.samples(), ba.samples());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());
    EXPECT_EQ(ab.mean(), ba.mean());
    for (std::size_t i = 0; i < ab.numBuckets(); ++i)
        EXPECT_EQ(ab.bucket(i), ba.bucket(i));
    EXPECT_EQ(ab.p50(), ba.p50());
    EXPECT_EQ(ab.p99(), ba.p99());
}

#if GTEST_HAS_DEATH_TEST
TEST(HistogramDeathTest, MergeRejectsMismatchedGeometry)
{
    Histogram a(1, 8);
    Histogram b(2, 8);
    EXPECT_DEATH(a.merge(b), "merge");
}
#endif

TEST(Histogram, ResetClears)
{
    Histogram h(1, 8);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucket(3), 0u);
}

TEST(StatName, SnakeCasesTheMemberUnderItsGroup)
{
    EXPECT_EQ(statName("cache", "readHits"), "cache.read_hits");
    EXPECT_EQ(statName("cache3", "mrequestConversions"),
              "cache3.mrequest_conversions");
    EXPECT_EQ(statName("counts", "reads"), "counts.reads");
    EXPECT_EQ(statName("dirstore", "ramBudgetBytes"),
              "dirstore.ram_budget_bytes");
}

} // namespace
} // namespace dir2b
