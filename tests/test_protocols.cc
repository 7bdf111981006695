/**
 * @file
 * Directed tests for the remaining baseline protocols of the paper's
 * spectrum: classical (§2.3), Tang duplicated directories (§2.4.1),
 * write-once (§2.5), Illinois (ref [5]) and the software scheme
 * (§2.2).
 */

#include <gtest/gtest.h>

#include "check/differ.hh"
#include "proto/classical.hh"
#include "proto/dup_dir.hh"
#include "proto/illinois.hh"
#include "proto/protocol_factory.hh"
#include "proto/software.hh"
#include "proto/write_once.hh"
#include "trace/reference.hh"

namespace dir2b
{
namespace
{

ProtoConfig
config(ProcId n = 4, std::size_t sets = 64, std::size_t ways = 4)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = sets;
    cfg.cacheGeom.ways = ways;
    cfg.numModules = 2;
    return cfg;
}

// ---------------------------------------------------------------- //
// Classical broadcast write-through (§2.3).
// ---------------------------------------------------------------- //

TEST(Classical, EveryWriteBroadcastsToAllOtherCaches)
{
    const ProcId n = 4;
    ClassicalProtocol p(config(n));
    p.access(0, 10, true, 1);
    EXPECT_EQ(p.lastDelta().broadcastCmds, n - 1u);
    EXPECT_EQ(p.lastDelta().memWrites, 1u);
    p.access(0, 10, true, 2);
    // Even repeated writes to the same block broadcast again.
    EXPECT_EQ(p.lastDelta().broadcastCmds, n - 1u);
}

TEST(Classical, RemoteCopiesInvalidatedOnWrite)
{
    ClassicalProtocol p(config());
    p.access(1, 10, false);
    p.access(2, 10, false);
    p.access(0, 10, true, 5);
    EXPECT_EQ(p.lastDelta().invalidations, 2u);
    EXPECT_EQ(p.holders(10).size(), 0u); // no write-allocate
    EXPECT_EQ(p.access(1, 10, false), 5u);
}

TEST(Classical, MemoryIsAlwaysCurrent)
{
    ClassicalProtocol p(config());
    p.access(0, 10, true, 5);
    EXPECT_EQ(p.memValue(10), 5u);
    p.access(0, 10, false);
    p.access(0, 10, true, 6);
    EXPECT_EQ(p.memValue(10), 6u);
    p.checkInvariants();
}

TEST(Classical, BiasFilterAbsorbsRepeatedInvalidations)
{
    ProtoConfig cfg = config();
    cfg.biasCapacity = 16;
    ClassicalProtocol p(cfg);
    // Processor 0 writes the same block repeatedly; caches 1..3 should
    // take one directory cycle each and then be shielded.
    for (int i = 0; i < 10; ++i)
        p.access(0, 10, true, 100u + i);
    EXPECT_GT(p.biasAbsorbed(), 0u);
    EXPECT_EQ(p.counts().filteredCmds, p.biasAbsorbed());
    // Stolen cycles: only the unfiltered deliveries.
    EXPECT_EQ(p.counts().stolenCycles + p.counts().filteredCmds,
              p.counts().broadcastCmds);
}

TEST(Classical, NoDirectoryStorage)
{
    ClassicalProtocol p(config());
    EXPECT_EQ(p.directoryBitsPerBlock(), 0u);
}

// ---------------------------------------------------------------- //
// Tang duplicated cache directories (§2.4.1).
// ---------------------------------------------------------------- //

TEST(DupDir, BehavesLikeFullMapOnCommands)
{
    DupDirProtocol p(config(8));
    const Addr a = 5;
    p.access(0, a, false);
    p.access(1, a, false);
    p.access(7, a, true, 1);
    EXPECT_EQ(p.lastDelta().directedCmds, 2u);
    EXPECT_EQ(p.lastDelta().uselessCmds, 0u);
}

TEST(DupDir, CentralControllerSearchesAllDuplicates)
{
    const ProcId n = 8;
    DupDirProtocol p(config(n));
    p.access(0, 5, false);
    // Each directory consultation scans all n duplicates.
    EXPECT_GE(p.lastDelta().dirSearches, static_cast<std::uint64_t>(n));
}

TEST(DupDir, EveryCacheChangeUpdatesCentralCopy)
{
    DupDirProtocol p(config());
    p.access(0, 5, false);
    const auto afterFill = p.counts().dirUpdates;
    EXPECT_GE(afterFill, 1u);
    p.access(1, 5, true, 9); // invalidation at 0 + fill at 1
    EXPECT_GE(p.counts().dirUpdates, afterFill + 2);
}

/** Every counter of `c`, in declaration order. */
std::vector<std::uint64_t>
fields(const AccessCounts &c)
{
    std::vector<std::uint64_t> v;
    AccessCounts::forEachField(
        c, [&](const char *, std::uint64_t x) { v.push_back(x); });
    return v;
}

TEST(DupDir, DeltaIsFullMapDeltaPlusTangTraffic)
{
    // dup_dir runs the full-map table; only the central controller's
    // traffic, derived from each transaction's own counters, is added.
    // The golden digests pin the totals; this pins every access, and
    // every flush of a rotating cache.
    FuzzConfig fc;
    fc.refsPerSeed = 4000;
    const ProtoConfig cfg = config(fc.diff.numProcs, fc.diff.sets,
                                   fc.diff.ways);
    const auto fm = makeProtocol("full_map", cfg);
    DupDirProtocol dd(cfg);
    const auto tang = [&](AccessCounts d) {
        const std::uint64_t t = d.writeHitsClean + d.readMisses +
                                d.writeMisses + d.ejects;
        d.dirSearches += cfg.numProcs * t;
        d.dirUpdates += d.directedCmds + t;
        d.netMessages += d.directedCmds + t;
        return d;
    };

    std::uint64_t step = 0;
    for (const MemRef &r : fuzzTrace(fc, 0)) {
        ++step;
        fm->access(r.proc, r.addr, r.write, step);
        dd.access(r.proc, r.addr, r.write, step);
        ASSERT_EQ(fields(dd.lastDelta()), fields(tang(fm->lastDelta())))
            << "access " << step << ": " << toString(r);
        if (step % 53 == 0) {
            const auto p = static_cast<ProcId>(step / 53 % cfg.numProcs);
            const AccessCounts fmBefore = fm->counts();
            const AccessCounts ddBefore = dd.counts();
            fm->flushCache(p);
            dd.flushCache(p);
            ASSERT_EQ(fields(dd.counts() - ddBefore),
                      fields(tang(fm->counts() - fmBefore)))
                << "flush of cache " << p << " after access " << step;
        }
    }
    EXPECT_GT(dd.counts().ejects, 0u);
    EXPECT_GT(dd.counts().directedCmds, 0u);
}

// ---------------------------------------------------------------- //
// Write-once (§2.5).
// ---------------------------------------------------------------- //

TEST(WriteOnce, FirstWriteGoesThroughAndReserves)
{
    WriteOnceProtocol p(config());
    p.access(0, 10, false);
    p.access(0, 10, true, 5);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Reserved);
    EXPECT_EQ(p.memValue(10), 5u); // written through
    EXPECT_EQ(p.lastDelta().wordWrites, 1u);
}

TEST(WriteOnce, SecondWriteGoesDirtyWithNoBusTraffic)
{
    WriteOnceProtocol p(config());
    p.access(0, 10, false);
    p.access(0, 10, true, 5);
    const AccessCounts before = p.counts();
    p.access(0, 10, true, 6);
    const AccessCounts d = p.counts() - before;
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.snoopChecks, 0u);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Modified);
    EXPECT_EQ(p.memValue(10), 5u); // memory now stale
}

TEST(WriteOnce, DirtyOwnerSuppliesAndWritesBackOnRead)
{
    WriteOnceProtocol p(config());
    p.access(0, 10, false);
    p.access(0, 10, true, 5);
    p.access(0, 10, true, 6); // Dirty
    p.access(1, 10, false);
    EXPECT_EQ(p.lastDelta().cacheTransfers, 1u);
    EXPECT_EQ(p.lastDelta().writebacks, 1u);
    EXPECT_EQ(p.access(1, 10, false), 6u);
    EXPECT_EQ(p.memValue(10), 6u);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Shared);
}

TEST(WriteOnce, EveryMissIsSnoopedByAllOtherCaches)
{
    const ProcId n = 8;
    WriteOnceProtocol p(config(n));
    p.access(0, 10, false);
    EXPECT_EQ(p.lastDelta().snoopChecks, n - 1u);
    p.access(1, 20, true, 1);
    EXPECT_EQ(p.lastDelta().snoopChecks, n - 1u);
}

TEST(WriteOnce, WriteMissInvalidatesAllCopies)
{
    WriteOnceProtocol p(config());
    p.access(0, 10, false);
    p.access(1, 10, false);
    p.access(2, 10, true, 7);
    EXPECT_EQ(p.lastDelta().invalidations, 2u);
    EXPECT_EQ(p.holders(10), std::vector<ProcId>{2});
    EXPECT_EQ(p.cache(2).peek(10)->state, LineState::Modified);
}

TEST(WriteOnce, InvariantsUnderMixedTraffic)
{
    WriteOnceProtocol p(config(4, 2, 2));
    for (int i = 0; i < 500; ++i) {
        p.access(static_cast<ProcId>(i % 4),
                 static_cast<Addr>((i * 3) % 10), i % 3 == 0,
                 40000u + i);
        p.checkInvariants();
    }
}

// ---------------------------------------------------------------- //
// Illinois / MESI (ref [5]).
// ---------------------------------------------------------------- //

TEST(Illinois, SoleReaderFillsExclusive)
{
    IllinoisProtocol p(config());
    p.access(0, 10, false);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Exclusive);
}

TEST(Illinois, ExclusiveWriteIsSilent)
{
    IllinoisProtocol p(config());
    p.access(0, 10, false);
    const AccessCounts before = p.counts();
    p.access(0, 10, true, 5);
    const AccessCounts d = p.counts() - before;
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.snoopChecks, 0u);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Modified);
}

TEST(Illinois, CacheToCacheSupplyOnSharedRead)
{
    IllinoisProtocol p(config());
    p.access(0, 10, false);
    p.access(1, 10, false);
    EXPECT_EQ(p.lastDelta().cacheTransfers, 1u);
    EXPECT_EQ(p.lastDelta().memReads, 0u);
    EXPECT_EQ(p.cache(0).peek(10)->state, LineState::Shared);
    EXPECT_EQ(p.cache(1).peek(10)->state, LineState::Shared);
}

TEST(Illinois, DirtyReadMissWritesBack)
{
    IllinoisProtocol p(config());
    p.access(0, 10, true, 9);
    p.access(1, 10, false);
    EXPECT_EQ(p.lastDelta().writebacks, 1u);
    EXPECT_EQ(p.access(1, 10, false), 9u);
    EXPECT_EQ(p.memValue(10), 9u);
}

TEST(Illinois, WriteMissTransfersOwnershipWithoutWriteback)
{
    IllinoisProtocol p(config());
    p.access(0, 10, true, 9);
    p.access(1, 10, true, 11);
    EXPECT_EQ(p.lastDelta().writebacks, 0u);
    EXPECT_EQ(p.lastDelta().invalidations, 1u);
    EXPECT_EQ(p.access(1, 10, false), 11u);
}

TEST(Illinois, SharedWriteHitInvalidatesOthers)
{
    IllinoisProtocol p(config());
    p.access(0, 10, false);
    p.access(1, 10, false);
    p.access(0, 10, true, 5);
    EXPECT_EQ(p.lastDelta().invalidations, 1u);
    EXPECT_EQ(p.holders(10), std::vector<ProcId>{0});
}

TEST(Illinois, InvariantsUnderMixedTraffic)
{
    IllinoisProtocol p(config(4, 2, 2));
    for (int i = 0; i < 500; ++i) {
        p.access(static_cast<ProcId>((i * 5) % 4),
                 static_cast<Addr>(i % 9), i % 4 == 1, 50000u + i);
        p.checkInvariants();
    }
}

// ---------------------------------------------------------------- //
// Software-enforced scheme (§2.2).
// ---------------------------------------------------------------- //

ProtoConfig
softwareConfig()
{
    ProtoConfig cfg = config();
    cfg.nonCacheableBase = sharedRegionBase;
    return cfg;
}

TEST(Software, PublicBlocksAreNeverCached)
{
    SoftwareProtocol p(softwareConfig());
    const Addr pub = sharedRegionBase + 3;
    p.access(0, pub, false);
    p.access(0, pub, false);
    EXPECT_EQ(p.holders(pub).size(), 0u);
    // Every access is a memory round trip.
    EXPECT_EQ(p.counts().memReads, 2u);
    p.checkInvariants();
}

TEST(Software, PublicWritesAreImmediatelyVisibleEverywhere)
{
    SoftwareProtocol p(softwareConfig());
    const Addr pub = sharedRegionBase;
    p.access(0, pub, true, 42);
    EXPECT_EQ(p.access(1, pub, false), 42u);
    EXPECT_EQ(p.access(2, pub, false), 42u);
    EXPECT_EQ(p.counts().broadcasts, 0u);
    EXPECT_EQ(p.counts().invalidations, 0u);
}

TEST(Software, PrivateBlocksAreCachedNormally)
{
    SoftwareProtocol p(softwareConfig());
    const Addr priv = privateRegionBase(0);
    p.access(0, priv, true, 7);
    p.access(0, priv, false);
    EXPECT_EQ(p.counts().readHits, 1u);
    EXPECT_EQ(p.access(0, priv, false), 7u);
}

TEST(Software, ContractViolationIsDetected)
{
    SoftwareProtocol p(softwareConfig());
    const Addr priv = privateRegionBase(0);
    p.access(0, priv, true, 7);
    EXPECT_DEATH(p.access(1, priv, true, 8), "contract violated");
}

TEST(Software, CrossReadOfWrittenPrivateBlockIsDetected)
{
    SoftwareProtocol p(softwareConfig());
    const Addr priv = privateRegionBase(0);
    p.access(0, priv, true, 7);
    EXPECT_DEATH(p.access(1, priv, false), "contract violated");
}

TEST(Software, ReadOnlySharingOfUnwrittenBlocksIsFine)
{
    SoftwareProtocol p(softwareConfig());
    const Addr ro = privateRegionBase(0) + 5;
    EXPECT_EQ(p.access(0, ro, false), initialValue(ro));
    EXPECT_EQ(p.access(1, ro, false), initialValue(ro));
    EXPECT_EQ(p.access(2, ro, false), initialValue(ro));
}

// ---------------------------------------------------------------- //
// Factory.
// ---------------------------------------------------------------- //

TEST(Factory, BuildsEveryRegisteredProtocol)
{
    ProtoConfig cfg = config();
    cfg.nonCacheableBase = sharedRegionBase;
    cfg.tbCapacity = 8;
    for (const auto &name : protocolNames()) {
        auto p = makeProtocol(name, cfg);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->name(), name);
        // Smoke: one access works and invariants hold.
        p->access(0, privateRegionBase(0), false);
        p->checkInvariants();
    }
}

TEST(Factory, DirectoryCostOrdering)
{
    // The economy claim: 2 bits vs n+1 bits, snoop/classical at zero.
    ProtoConfig cfg = config(16);
    EXPECT_EQ(makeProtocol("two_bit", cfg)->directoryBitsPerBlock(), 2u);
    EXPECT_EQ(makeProtocol("full_map", cfg)->directoryBitsPerBlock(),
              17u);
    EXPECT_EQ(makeProtocol("classical", cfg)->directoryBitsPerBlock(),
              0u);
}

} // namespace
} // namespace dir2b
