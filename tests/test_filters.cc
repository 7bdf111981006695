/**
 * @file
 * Unit tests for the BIAS invalidation filter (§2.3).  The duplicate
 * directory of §4.4 enhancement (a) is the caches' holder index; the
 * timed tier's tests cover it (TimedSystem.SnoopFilter*).
 */

#include <gtest/gtest.h>

#include "cache/bias_filter.hh"

namespace dir2b
{
namespace
{

TEST(BiasFilter, RepeatedInvalidationAbsorbed)
{
    BiasFilter f(8);
    // First invalidation cycles the directory, second is absorbed.
    EXPECT_FALSE(f.onInvalidate(42));
    EXPECT_TRUE(f.onInvalidate(42));
    EXPECT_TRUE(f.onInvalidate(42));
    EXPECT_EQ(f.absorbed(), 2u);
    EXPECT_EQ(f.passed(), 1u);
}

TEST(BiasFilter, LocalReferenceClearsEntry)
{
    BiasFilter f(8);
    EXPECT_FALSE(f.onInvalidate(42));
    f.onLocalReference(42); // block may be re-cached now
    EXPECT_FALSE(f.onInvalidate(42));
    EXPECT_EQ(f.passed(), 2u);
}

TEST(BiasFilter, CapacityEvictsLru)
{
    BiasFilter f(2);
    EXPECT_FALSE(f.onInvalidate(1));
    EXPECT_FALSE(f.onInvalidate(2));
    EXPECT_FALSE(f.onInvalidate(3)); // evicts 1
    EXPECT_FALSE(f.onInvalidate(1)); // 1 was forgotten
    EXPECT_EQ(f.size(), 2u);
}

TEST(BiasFilter, ZeroCapacityDisables)
{
    BiasFilter f(0);
    EXPECT_FALSE(f.onInvalidate(7));
    EXPECT_FALSE(f.onInvalidate(7));
    EXPECT_EQ(f.absorbed(), 0u);
}

TEST(BiasFilter, TouchKeepsHotEntriesResident)
{
    BiasFilter f(2);
    EXPECT_FALSE(f.onInvalidate(1));
    EXPECT_FALSE(f.onInvalidate(2));
    EXPECT_TRUE(f.onInvalidate(1));  // touch 1: now 2 is LRU
    EXPECT_FALSE(f.onInvalidate(3)); // evicts 2
    EXPECT_TRUE(f.onInvalidate(1));  // 1 still remembered
}

} // namespace
} // namespace dir2b
