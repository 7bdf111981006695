/**
 * @file
 * Directed tests of the full-map baseline (Censier-Feautrier, run by
 * the full-map table) and the Yen-Fu local-state extension: exact
 * presence-vector maintenance and the defining property that no
 * command is ever useless.
 */

#include <gtest/gtest.h>

#include "proto/full_map_local.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"

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

// The full map is the full-map table; its directory states are these
// indices, and its presence bits are the caches' holder sets.
constexpr std::uint8_t shared = 1;
constexpr std::uint8_t modified = 2;

std::unique_ptr<Protocol>
fullMap(const ProtoConfig &cfg)
{
    return makeProtocol("full_map", cfg);
}

std::uint8_t
dirState(const Protocol &p, Addr a)
{
    return dynamic_cast<const TableProtocol &>(p).dirStateOf(a);
}

TEST(FullMap, PresenceBitsTrackReaders)
{
    const auto p = fullMap(config());
    const Addr a = 100;
    p->access(0, a, false);
    p->access(2, a, false);
    EXPECT_EQ(p->holders(a), (std::vector<ProcId>{0, 2}));
    EXPECT_EQ(dirState(*p, a), shared);
}

TEST(FullMap, WriteMissSendsExactlyHolderCountInvalidations)
{
    const auto p = fullMap(config(8));
    const Addr a = 5;
    p->access(0, a, false);
    p->access(1, a, false);
    p->access(2, a, false);
    p->access(7, a, true, 1);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.directedCmds, 3u);
    EXPECT_EQ(d.invalidations, 3u);
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{7});
    EXPECT_EQ(dirState(*p, a), modified);
}

TEST(FullMap, ReadMissOnModifiedPurgesExactlyOwner)
{
    const auto p = fullMap(config(8));
    const Addr a = 6;
    p->access(3, a, true, 42);
    p->access(5, a, false);

    const AccessCounts &d = p->lastDelta();
    EXPECT_EQ(d.directedCmds, 1u);
    EXPECT_EQ(d.purges, 1u);
    EXPECT_EQ(d.writebacks, 1u);
    EXPECT_EQ(d.uselessCmds, 0u);
    EXPECT_EQ(p->access(5, a, false), 42u);
    EXPECT_EQ(p->holders(a), (std::vector<ProcId>{3, 5}));
    EXPECT_EQ(dirState(*p, a), shared);
}

TEST(FullMap, WriteHitWithSoleCopyNeedsNoInvalidation)
{
    const auto p = fullMap(config());
    const Addr a = 7;
    p->access(0, a, false);
    p->access(0, a, true, 9);
    EXPECT_EQ(p->lastDelta().directedCmds, 0u);
    EXPECT_EQ(p->lastDelta().invalidations, 0u);
    EXPECT_EQ(dirState(*p, a), modified);
}

TEST(FullMap, CleanEjectClearsPresenceBitExactly)
{
    const auto p = fullMap(config(4, 1, 1));
    const Addr a = 20;
    const Addr b = 21;
    p->access(0, a, false);
    p->access(1, a, false);
    p->access(0, b, false); // cache 0 ejects a
    EXPECT_EQ(p->holders(a), std::vector<ProcId>{1});
    EXPECT_EQ(dirState(*p, a), shared);
    // Unlike the two-bit map, a later write sends exactly one command.
    p->access(2, a, true, 1);
    EXPECT_EQ(p->lastDelta().directedCmds, 1u);
    EXPECT_EQ(p->lastDelta().uselessCmds, 0u);
}

TEST(FullMap, NeverAnyUselessCommand)
{
    const auto p = fullMap(config(4, 2, 2));
    // A busy mixed sequence with evictions and ownership migration.
    for (int i = 0; i < 500; ++i) {
        const auto proc = static_cast<ProcId>(i % 4);
        const Addr a = static_cast<Addr>(i % 12);
        p->access(proc, a, i % 3 == 0, 10000u + i);
        p->checkInvariants();
    }
    EXPECT_EQ(p->counts().uselessCmds, 0u);
    EXPECT_EQ(p->counts().broadcasts, 0u);
}

TEST(FullMap, DirectoryCostGrowsWithN)
{
    EXPECT_EQ(fullMap(config(4))->directoryBitsPerBlock(), 5u);
    EXPECT_EQ(fullMap(config(16))->directoryBitsPerBlock(), 17u);
    EXPECT_EQ(fullMap(config(64))->directoryBitsPerBlock(), 65u);
}

TEST(FullMapLocal, FirstReaderGetsExclusiveCleanCopy)
{
    FullMapLocalProtocol p(config());
    const Addr a = 30;
    p.access(0, a, false);
    EXPECT_EQ(p.cache(0).peek(a)->state, LineState::Exclusive);
}

TEST(FullMapLocal, SilentUpgradeCostsNoMessages)
{
    FullMapLocalProtocol p(config());
    const Addr a = 31;
    p.access(0, a, false); // Exclusive
    const AccessCounts before = p.counts();
    p.access(0, a, true, 5);
    const AccessCounts d = p.counts() - before;
    EXPECT_EQ(d.netMessages, 0u);
    EXPECT_EQ(d.mrequests, 0u);
    EXPECT_EQ(p.silentUpgrades(), 1u);
}

TEST(FullMapLocal, RemoteReadAfterSilentUpgradeRecoversData)
{
    FullMapLocalProtocol p(config());
    const Addr a = 32;
    p.access(0, a, false);
    p.access(0, a, true, 77); // silent upgrade: directory thinks clean
    p.access(1, a, false);    // must still see 77
    EXPECT_EQ(p.access(1, a, false), 77u);
    EXPECT_EQ(p.memValue(a), 77u); // write-back happened on the query
}

TEST(FullMapLocal, SecondReaderDowngradesExclusive)
{
    FullMapLocalProtocol p(config());
    const Addr a = 33;
    p.access(0, a, false);
    p.access(1, a, false);
    EXPECT_EQ(p.cache(0).peek(a)->state, LineState::Shared);
    EXPECT_EQ(p.cache(1).peek(a)->state, LineState::Shared);
}

TEST(FullMapLocal, SharedWriteHitStillNeedsInvalidations)
{
    FullMapLocalProtocol p(config());
    const Addr a = 34;
    p.access(0, a, false);
    p.access(1, a, false); // both Shared
    p.access(0, a, true, 5);
    EXPECT_EQ(p.lastDelta().mrequests, 1u);
    EXPECT_EQ(p.lastDelta().invalidations, 1u);
    EXPECT_EQ(p.holders(a), std::vector<ProcId>{0});
}

TEST(FullMapLocal, EvictionLeavesOneSharedHolderToQuery)
{
    // Two readers share a block and one evicts it: the remaining copy
    // is Shared, yet it is the sole holder, so a remote read must query
    // it (it might have been Exclusive and silently upgraded) with one
    // directed command, and memory supplies the clean data.
    FullMapLocalProtocol p(config(4, 1, 1));
    const Addr a = 40;
    p.access(0, a, false);
    p.access(1, a, false);
    p.access(0, a + 1, false); // cache 0 ejects a
    ASSERT_EQ(p.holders(a), std::vector<ProcId>{1});
    ASSERT_EQ(p.cache(1).peek(a)->state, LineState::Shared);

    const std::uint64_t before = p.cmdsReceivedBy(1);
    p.access(2, a, false);
    const AccessCounts &d = p.lastDelta();
    EXPECT_EQ(d.directedCmds, 1u);
    EXPECT_EQ(d.broadcasts, 0u);
    EXPECT_EQ(d.purges, 0u);
    EXPECT_EQ(d.memReads, 1u);
    EXPECT_EQ(p.cmdsReceivedBy(1), before + 1);
    EXPECT_EQ(p.holders(a), (std::vector<ProcId>{1, 2}));
    EXPECT_EQ(p.cache(1).peek(a)->state, LineState::Shared);
    EXPECT_EQ(p.cache(2).peek(a)->state, LineState::Shared);
    p.checkInvariants();
}

TEST(FullMapLocal, InvariantsUnderMigration)
{
    FullMapLocalProtocol p(config(4, 2, 2));
    for (int i = 0; i < 500; ++i) {
        const auto proc = static_cast<ProcId>((i * 7) % 4);
        const Addr a = static_cast<Addr>(i % 10);
        p.access(proc, a, i % 4 == 0, 20000u + i);
        p.checkInvariants();
    }
    EXPECT_EQ(p.counts().uselessCmds, 0u);
}

} // namespace
} // namespace dir2b
