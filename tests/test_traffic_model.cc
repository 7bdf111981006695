/**
 * @file
 * Tests for the network-saturation model (the paper's §4.3 future
 * work) and the §2.2 cache-flush operation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/two_bit_protocol.hh"
#include "model/traffic_model.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "trace/reference.hh"

namespace dir2b
{
namespace
{

TrafficParams
params(unsigned n, SharingLevel level = SharingLevel::Moderate,
       double w = 0.2)
{
    TrafficParams p;
    p.sharing = sharingCase(level, n, w);
    return p;
}

TEST(TrafficModel, UtilisationGrowsWithProcessors)
{
    double prev = 0.0;
    for (unsigned n : {2u, 4u, 8u, 16u, 32u}) {
        const auto r = networkLoad(params(n));
        EXPECT_GT(r.utilisation, prev);
        prev = r.utilisation;
    }
}

TEST(TrafficModel, BroadcastShareGrowsWithSharing)
{
    const auto low = networkLoad(params(16, SharingLevel::Low));
    const auto high = networkLoad(params(16, SharingLevel::High));
    EXPECT_GT(high.broadcastMsgsPerRef, low.broadcastMsgsPerRef);
    // The broadcast *share* of the load is what grows with sharing;
    // base traffic moves only via the MREQUEST term.
    const auto share = [](const TrafficResult &r) {
        return r.broadcastMsgsPerRef /
               (r.baseMsgsPerRef + r.broadcastMsgsPerRef);
    };
    EXPECT_GT(share(high), share(low));
}

TEST(TrafficModel, QueueDelayDivergesNearSaturation)
{
    TrafficParams p = params(8);
    p.portServiceRate = 10.0;
    const auto relaxed = networkLoad(p);
    EXPECT_FALSE(relaxed.saturated);
    EXPECT_GE(relaxed.queueDelay, 1.0 / p.portServiceRate);

    p.portServiceRate = relaxed.portLoad * 1.01; // rho ~ 0.99
    const auto tense = networkLoad(p);
    EXPECT_FALSE(tense.saturated);
    EXPECT_GT(tense.queueDelay, 10.0 * relaxed.queueDelay);

    p.portServiceRate = relaxed.portLoad * 0.5; // rho = 2
    const auto broken = networkLoad(p);
    EXPECT_TRUE(broken.saturated);
    EXPECT_TRUE(std::isinf(broken.queueDelay));
}

TEST(TrafficModel, MoreModulesRaiseTheSaturationPoint)
{
    TrafficParams few = params(4);
    few.modules = 2;
    TrafficParams many = params(4);
    many.modules = 16;
    EXPECT_GE(saturationProcessorCount(many),
              saturationProcessorCount(few));
}

TEST(TrafficModel, HighSharingSaturatesEarlier)
{
    TrafficParams low = params(4, SharingLevel::Low, 0.2);
    TrafficParams high = params(4, SharingLevel::High, 0.4);
    EXPECT_GE(saturationProcessorCount(low),
              saturationProcessorCount(high));
}

// ---------------------------------------------------------------- //
// flushCache (§2.2 context switch).
// ---------------------------------------------------------------- //

ProtoConfig
config()
{
    ProtoConfig cfg;
    cfg.numProcs = 4;
    cfg.cacheGeom.sets = 8;
    cfg.cacheGeom.ways = 2;
    cfg.numModules = 2;
    return cfg;
}

TEST(FlushCache, TwoBitWritesBackAndReclaims)
{
    TwoBitProtocol p(config());
    p.access(0, 1, true, 11);  // dirty
    p.access(0, 2, false);     // clean, Present1
    p.access(0, 3, false);
    p.access(1, 3, false);     // Present*, two holders

    p.flushCache(0);

    EXPECT_EQ(p.cache(0).validCount(), 0u);
    EXPECT_EQ(p.memValue(1), 11u);
    EXPECT_EQ(p.globalState(1), GlobalState::Absent);
    EXPECT_EQ(p.globalState(2), GlobalState::Absent);
    // Block 3 still held by cache 1: Present* (cannot count down).
    EXPECT_EQ(p.globalState(3), GlobalState::PresentStar);
    p.checkInvariants();

    // Post-flush accesses behave like a cold cache.
    EXPECT_EQ(p.access(0, 1, false), 11u);
}

TEST(FlushCache, FullMapClearsExactBits)
{
    const auto p = makeProtocol("full_map", config());
    p->access(0, 1, true, 7);
    p->access(0, 2, false);
    p->access(2, 2, false);

    p->flushCache(0);

    EXPECT_EQ(p->cache(0).validCount(), 0u);
    EXPECT_EQ(p->memValue(1), 7u);
    EXPECT_EQ(p->holders(2), std::vector<ProcId>{2});
    // The full-map table's states: 0 Uncached, 1 Shared.
    const auto &table = dynamic_cast<const TableProtocol &>(*p);
    EXPECT_EQ(table.dirStateOf(1), 0u);
    EXPECT_EQ(table.dirStateOf(2), 1u);
    p->checkInvariants();
}

TEST(FlushCache, MigrationWithFlushKeepsSoftwareSchemeSound)
{
    // §2.2: "this software solution is not sufficient by itself if we
    // allow process migration" — unless caches are flushed at the
    // switch.  Simulate: proc 0 runs a task, flush, proc 1 resumes it.
    ProtoConfig cfg = config();
    auto p = makeProtocol("two_bit", cfg);
    const Addr a = privateRegionBase(0);
    p->access(0, a, true, 42);
    p->flushCache(0);
    // The migrated task reads its data from memory on processor 1.
    EXPECT_EQ(p->access(1, a, false), 42u);
    EXPECT_EQ(p->lastDelta().memReads, 1u);
    EXPECT_EQ(p->lastDelta().broadcasts, 0u);
}

TEST(FlushCache, UnsupportedProtocolsFatal)
{
    auto p = makeProtocol("illinois", config());
    EXPECT_DEATH(p->flushCache(0), "does not implement flushCache");
}

TEST(FlushCache, FlushOfEmptyCacheIsFree)
{
    TwoBitProtocol p(config());
    const AccessCounts before = p.counts();
    p.flushCache(2);
    const AccessCounts d = p.counts() - before;
    EXPECT_EQ(d.ejects, 0u);
    EXPECT_EQ(d.netMessages, 0u);
}

} // namespace
} // namespace dir2b
