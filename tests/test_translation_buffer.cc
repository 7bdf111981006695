/**
 * @file
 * Tests for the §4.4 translation-buffer enhancement: the raw buffer
 * and the enhanced protocol's broadcast elimination.
 */

#include <gtest/gtest.h>

#include "core/translation_buffer.hh"
#include "core/two_bit_tb_protocol.hh"
#include "trace/reference.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

ProtoConfig
config(ProcId n = 4, std::size_t tbCapacity = 64)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 64;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 1;
    cfg.tbCapacity = tbCapacity;
    return cfg;
}

TEST(TranslationBuffer, MissThenInstallThenHit)
{
    TranslationBuffer tb(4);
    EXPECT_FALSE(tb.lookup(10).has_value());
    tb.installExact(10, {1, 2});
    auto h = tb.lookup(10);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(*h, (std::vector<ProcId>{1, 2}));
    EXPECT_EQ(tb.hits(), 1u);
    EXPECT_EQ(tb.misses(), 1u);
    EXPECT_DOUBLE_EQ(tb.hitRatio(), 0.5);
}

TEST(TranslationBuffer, AddRemoveHolderMaintainsSet)
{
    TranslationBuffer tb(4);
    tb.installExact(10, {0});
    tb.addHolder(10, 2);
    tb.addHolder(10, 2); // duplicate is a no-op
    auto h = tb.lookup(10);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(*h, (std::vector<ProcId>{0, 2}));
    tb.removeHolder(10, 0);
    h = tb.lookup(10);
    EXPECT_EQ(*h, std::vector<ProcId>{2});
}

TEST(TranslationBuffer, AddHolderToMissingEntryIsIgnored)
{
    TranslationBuffer tb(4);
    tb.addHolder(99, 1); // no entry: the set is unknown, stay unknown
    EXPECT_FALSE(tb.lookup(99).has_value());
}

TEST(TranslationBuffer, LruCapacityEviction)
{
    TranslationBuffer tb(2);
    tb.installExact(1, {0});
    tb.installExact(2, {0});
    tb.installExact(3, {0}); // evicts 1
    EXPECT_FALSE(tb.lookup(1).has_value());
    EXPECT_TRUE(tb.lookup(2).has_value());
    EXPECT_TRUE(tb.lookup(3).has_value());
}

TEST(TranslationBuffer, ZeroCapacityNeverStores)
{
    TranslationBuffer tb(0);
    tb.installExact(1, {0});
    EXPECT_FALSE(tb.lookup(1).has_value());
}

TEST(TwoBitTb, HitConvertsBroadcastToDirected)
{
    const ProcId n = 8;
    TwoBitTbProtocol p(config(n));
    const Addr a = sharedRegionBase;
    p.access(0, a, false); // Absent -> Present1; TB learns {0}
    p.access(1, a, false); // Present*; TB updates {0,1}
    p.access(2, a, true, 5); // write miss: TB hit -> directed

    const AccessCounts &d = p.lastDelta();
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.directedCmds, 2u);
    EXPECT_EQ(d.invalidations, 2u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(d.tbHits, 1u);
}

TEST(TwoBitTb, QueryHitGoesDirectlyToOwner)
{
    const ProcId n = 8;
    TwoBitTbProtocol p(config(n));
    const Addr a = sharedRegionBase + 1;
    p.access(0, a, true, 9); // PresentM; TB learns {0}
    p.access(1, a, false);   // read miss on PresentM: directed purge

    const AccessCounts &d = p.lastDelta();
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.directedCmds, 1u);
    EXPECT_EQ(d.purges, 1u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(p.access(1, a, false), 9u);
}

TEST(TwoBitTb, CapacityMissFallsBackToBroadcast)
{
    const ProcId n = 4;
    // Tiny buffer: one entry.
    TwoBitTbProtocol p(config(n, 1));
    const Addr a = sharedRegionBase;
    const Addr b = sharedRegionBase + 1;
    p.access(0, a, true, 1); // TB: {a -> {0}}
    p.access(0, b, true, 2); // TB: {b -> {0}}, a evicted
    p.access(1, a, false);   // read miss on PresentM: TB miss

    const AccessCounts &d = p.lastDelta();
    EXPECT_EQ(d.broadcasts, 1u);
    EXPECT_EQ(d.tbMisses, 1u);
    EXPECT_EQ(d.uselessCmds, n - 2u);
    EXPECT_EQ(p.access(1, a, false), 1u);
}

TEST(TwoBitTb, LargeBufferEliminatesAllUselessCommands)
{
    // With an unbounded buffer every broadcast-worthy event after the
    // first touch of a block is directed: the scheme behaves like the
    // full map, which is the paper's limiting claim.
    TwoBitTbProtocol p(config(4, 1 << 20));
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        const auto proc = static_cast<ProcId>(rng.range(4));
        const Addr a = sharedRegionBase + rng.range(8);
        p.access(proc, a, rng.chance(0.3), 1000u + i);
        p.checkInvariants();
    }
    EXPECT_EQ(p.counts().uselessCmds, 0u);
    EXPECT_EQ(p.counts().broadcasts, 0u);
    EXPECT_DOUBLE_EQ(p.tbHitRatio(), 1.0);
}

TEST(TwoBitTb, SmallBufferInterpolatesTowardFullMap)
{
    // The paper: "if a 90% hit ratio ... could be maintained, 90% of
    // the added overhead resulting from the broadcasts is eliminated."
    // Directional check: a larger buffer gives fewer useless commands.
    auto run = [](std::size_t capacity) {
        TwoBitTbProtocol p(config(4, capacity));
        Rng rng(11);
        for (int i = 0; i < 5000; ++i) {
            const auto proc = static_cast<ProcId>(rng.range(4));
            const Addr a = sharedRegionBase + rng.range(64);
            p.access(proc, a, rng.chance(0.3), 5000u + i);
        }
        return p.counts().uselessCmds;
    };
    const auto noTb = run(0);
    const auto smallTb = run(8);
    const auto bigTb = run(256);
    EXPECT_GT(noTb, smallTb);
    EXPECT_GT(smallTb, bigTb);
}

} // namespace
} // namespace dir2b
