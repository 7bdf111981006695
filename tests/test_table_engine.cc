/**
 * @file
 * Unit suite for the table-driven protocol engine (proto/table_engine):
 * table validation (row-numbered rejection messages), first-match guard
 * evaluation order, stall/retry replay, any-state hit rows and their
 * inline path, and the metadata the rest of the system derives from
 * tables (flush support, directory cost, directory store counters).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "proto/table_defs.hh"
#include "proto/table_engine.hh"
#include "proto/protocol_factory.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

TableAction
bump(TableCounter c)
{
    return {ActionOp::Bump, static_cast<std::uint8_t>(c)};
}

TableAction
act(ActionOp op, std::uint8_t arg = 0)
{
    return {op, arg};
}

/** Smallest valid table: one state, a self-loop read-miss fill, a hit
 *  row, and eviction rows so flush works. */
TransitionTable
tinyTable()
{
    TransitionTable t;
    t.name = "tiny";
    t.stateNames = {"Only"};
    t.constraints = {{0, SIZE_MAX, 0, 1}};
    t.rows = {
        {0, EventClass::ReadHit, TableGuard::Always, {}, 0},
        {0, EventClass::WriteHitDirty, TableGuard::Always,
         {act(ActionOp::WriteLine)}, 0},
        {0, EventClass::WriteHitClean, TableGuard::Always,
         {act(ActionOp::SetLine,
              static_cast<std::uint8_t>(LineState::Modified)),
          act(ActionOp::WriteLine)}, 0},
        {0, EventClass::ReadMiss, TableGuard::Always,
         {act(ActionOp::ReadMem),
          act(ActionOp::FillLine,
              static_cast<std::uint8_t>(LineState::Shared))}, 0},
        {0, EventClass::WriteMiss, TableGuard::Always,
         {act(ActionOp::ReadMem),
          act(ActionOp::FillLine,
              static_cast<std::uint8_t>(LineState::Modified))}, 0},
        {0, EventClass::EvictClean, TableGuard::Always,
         {act(ActionOp::DropLine)}, 0},
        {0, EventClass::EvictDirty, TableGuard::Always,
         {act(ActionOp::WritebackLine), act(ActionOp::DropLine)}, 0},
    };
    return t;
}

ProtoConfig
smallConfig(ProcId procs = 2)
{
    ProtoConfig pc;
    pc.numProcs = procs;
    pc.numModules = 1;
    pc.cacheGeom.sets = 2;
    pc.cacheGeom.ways = 2;
    return pc;
}

/** True iff some validation message contains both fragments. */
bool
rejectsWith(const TransitionTable &t, const std::string &a,
            const std::string &b = "")
{
    for (const std::string &m : t.validate()) {
        if (m.find(a) != std::string::npos &&
            (b.empty() || m.find(b) != std::string::npos))
            return true;
    }
    return false;
}

TEST(TableValidate, ShippedTablesAreValid)
{
    EXPECT_TRUE(twoBitTable().validate().empty());
    EXPECT_TRUE(fullMapTable().validate().empty());
    EXPECT_TRUE(moesiTable().validate().empty());
}

TEST(TableValidate, ShippedTableShapes)
{
    // Both fold their local hits into two any-state rows.
    EXPECT_EQ(twoBitTable().rows.size(), 15u);
    EXPECT_EQ(fullMapTable().rows.size(), 12u);
    EXPECT_EQ(moesiTable().rows.size(), 26u);
    EXPECT_TRUE(twoBitTable().handlesEvict());
    EXPECT_TRUE(moesiTable().handlesEvict());
}

TEST(TableValidate, DuplicateRowRejectedWithRowNumber)
{
    TransitionTable t = tinyTable();
    t.rows.push_back(t.rows[0]); // duplicate (Only, ReadHit, Always)
    EXPECT_TRUE(rejectsWith(t, "row 7", "duplicate of row 0"));
}

TEST(TableValidate, GuardRowShadowedByEarlierAlwaysRejected)
{
    TransitionTable t = tinyTable();
    // Guarded variant AFTER the Always row: first-match order makes
    // it dead, and validate() must say so by row number.
    t.rows.push_back({0, EventClass::ReadHit,
                      TableGuard::OtherHoldersNone, {}, 0});
    EXPECT_TRUE(rejectsWith(t, "row 7", "matches Always first"));
}

TEST(TableValidate, UndefinedStatesRejected)
{
    TransitionTable t = tinyTable();
    t.rows.push_back({3, EventClass::ReadHit, TableGuard::Always,
                      {}, 0});
    EXPECT_TRUE(rejectsWith(t, "undefined state 3"));

    TransitionTable u = tinyTable();
    u.rows[0].next = 2;
    EXPECT_TRUE(rejectsWith(u, "undefined next-state 2"));
}

TEST(TableValidate, ActionVocabularyViolationsRejected)
{
    TransitionTable t = tinyTable();
    t.rows[0].actions = {bump(static_cast<TableCounter>(99))};
    EXPECT_TRUE(rejectsWith(t, "row 0", "unknown counter 99"));

    TransitionTable u = tinyTable();
    u.rows[3].actions = {act(ActionOp::FillLine,
                             static_cast<std::uint8_t>(
                                 LineState::Invalid))};
    EXPECT_TRUE(rejectsWith(u, "FillLine(Invalid)"));

    // Only DropLine may remove a copy: the holder index sees it.
    TransitionTable s = tinyTable();
    s.rows[0].actions = {act(ActionOp::SetLine,
                             static_cast<std::uint8_t>(
                                 LineState::Invalid))};
    EXPECT_TRUE(rejectsWith(s, "SetLine(Invalid)"));

    TransitionTable v = tinyTable();
    v.rows[3].actions = {act(ActionOp::FillLine, 42)};
    EXPECT_TRUE(rejectsWith(v, "unknown line state 42"));

    TransitionTable w = tinyTable();
    w.rows[0].actions = {act(ActionOp::SetDirState, 3)};
    EXPECT_TRUE(rejectsWith(w, "undefined target state 3"));
}

TEST(TableValidate, StallMustBeLastAction)
{
    TransitionTable t = tinyTable();
    t.rows[0].actions = {act(ActionOp::Stall),
                         bump(TableCounter::Requests)};
    EXPECT_TRUE(rejectsWith(t, "Stall must be the last"));
}

TEST(TableValidate, NextStateMustMatchDirectoryEffect)
{
    // Two states so a state change is expressible.
    TransitionTable t = tinyTable();
    t.stateNames = {"A", "B"};
    t.constraints = {{0, SIZE_MAX, 0, 1}, {0, SIZE_MAX, 0, 1}};

    // Declared next B, but no SetDirState: silently wrong.
    TransitionTable u = t;
    u.rows[0].next = 1;
    EXPECT_TRUE(rejectsWith(u, "changes state without a SetDirState"));

    // SetDirState writes B but the row declares next A.
    TransitionTable v = t;
    v.rows[0].actions = {act(ActionOp::SetDirState, 1)};
    EXPECT_TRUE(
        rejectsWith(v, "declares next state 'A'", "writes 'B'"));
}

TEST(TableValidate, StateCountAndConstraintArityChecked)
{
    TransitionTable t = tinyTable();
    t.stateNames = {"A", "B", "C", "D", "E"};
    EXPECT_TRUE(rejectsWith(t, "5 states"));

    TransitionTable u = tinyTable();
    u.constraints.clear();
    EXPECT_TRUE(rejectsWith(u, "0 state constraints"));
}

/** tinyTable() with row `i` turned into an any-state row. */
TransitionTable
anyStateAt(std::size_t i)
{
    TransitionTable t = tinyTable();
    t.rows[i].state = anyState;
    t.rows[i].next = anyState;
    return t;
}

TEST(TableValidate, AnyStateHitRowsAreValid)
{
    TransitionTable t = tinyTable();
    for (std::size_t i = 0; i < 3; ++i) {
        t.rows[i].state = anyState;
        t.rows[i].next = anyState;
    }
    EXPECT_TRUE(t.validate().empty());
}

TEST(TableValidate, AnyStateRowMustBeAHit)
{
    EXPECT_TRUE(rejectsWith(anyStateAt(3), "row 3 (*, ReadMiss",
                            "only a hit may fire in every state"));
}

TEST(TableValidate, AnyStateRowMustHaveTheAlwaysGuard)
{
    TransitionTable t = anyStateAt(0);
    t.rows[0].guard = TableGuard::OtherHoldersNone;
    EXPECT_TRUE(rejectsWith(t, "row 0 (*, ReadHit, OtherHoldersNone)",
                            "must have the Always guard"));
}

TEST(TableValidate, AnyStateRowActionsMustBeLineLocal)
{
    TransitionTable t = anyStateAt(1);
    t.rows[1].actions.push_back(act(ActionOp::SetDirState, 0));
    EXPECT_TRUE(rejectsWith(t, "row 1 (*, WriteHitDirty",
                            "action 1 (SetDirState): an any-state row "
                            "may only Bump, SetLine or WriteLine"));

    TransitionTable u = anyStateAt(0);
    u.rows[0].actions = {act(ActionOp::SendBroadInv)};
    EXPECT_TRUE(rejectsWith(u, "row 0", "action 0 (SendBroadInv)"));
}

TEST(TableValidate, AnyStateRowMustBeItsEventsOnlyRow)
{
    // A per-state row after the any-state row, and before it.
    TransitionTable t = anyStateAt(0);
    t.rows.push_back({0, EventClass::ReadHit, TableGuard::Always, {}, 0});
    EXPECT_TRUE(rejectsWith(t, "row 7 (Only, ReadHit",
                            "shares its event with row 0"));

    TransitionTable u = tinyTable();
    u.rows.push_back(
        {anyState, EventClass::ReadHit, TableGuard::Always, {}, anyState});
    EXPECT_TRUE(rejectsWith(u, "row 7 (*, ReadHit",
                            "shares its event with row 0"));
}

#if GTEST_HAS_DEATH_TEST
TEST(TableProtocolDeath, ConstructingFromInvalidTableFatals)
{
    TransitionTable t = tinyTable();
    t.rows.push_back(t.rows[0]);
    EXPECT_DEATH(TableProtocol(t, smallConfig()), "duplicate of row");
}

TEST(TableProtocolDeath, MissingRowFatalsWithIncompleteTable)
{
    TransitionTable t = tinyTable();
    // Remove the WriteMiss row: the first write from a cold cache has
    // no matching (state, event) row.
    t.rows.erase(t.rows.begin() + 4);
    TableProtocol proto(t, smallConfig());
    EXPECT_DEATH(proto.access(0, 0, true, 7), "incomplete table");
}
#endif

TEST(TableGuards, FirstMatchingRowWinsInDeclarationOrder)
{
    // full_map's clean-evict pair: the OtherHoldersNone row precedes
    // the Always fallback, so the LAST holder reclaims the directory
    // entry and an earlier evict (with another holder live) does not.
    TableProtocol proto(fullMapTable(), smallConfig());
    proto.access(0, 0, false);
    proto.access(1, 0, false);
    EXPECT_EQ(proto.dirStateOf(0), 1u); // Shared

    proto.flushCache(0); // other holder remains -> Always row, stays S
    EXPECT_EQ(proto.dirStateOf(0), 1u);
    proto.flushCache(1); // last holder -> OtherHoldersNone row, to U
    EXPECT_EQ(proto.dirStateOf(0), 0u);
}

TEST(TableGuards, GuardsSelectOnRemoteOwnerDirtiness)
{
    // MOESI (EM, ReadMiss): OwnerDirty row -> Owned; Always (clean
    // Exclusive owner) row -> Shared.
    TableProtocol dirty(moesiTable(), smallConfig());
    dirty.access(0, 0, true, 11); // P0 Modified, dir EM
    dirty.access(1, 0, false);    // dirty owner supplies -> dir Owned
    EXPECT_EQ(dirty.dirStateOf(0), 3u);

    TableProtocol clean(moesiTable(), smallConfig());
    clean.access(0, 0, false); // P0 Exclusive (clean), dir EM
    clean.access(1, 0, false); // clean owner downgrades -> dir Shared
    EXPECT_EQ(clean.dirStateOf(0), 1u);
}

TEST(TableStall, StallReplaysAfterStateChange)
{
    // (Cold, ReadMiss) primes the directory and stalls; the retry
    // re-classifies and completes through the (Warm, ReadMiss) row.
    TransitionTable t;
    t.name = "staller";
    t.stateNames = {"Cold", "Warm"};
    t.constraints = {{0, 0, 0, 0}, {0, SIZE_MAX, 0, 0}};
    t.rows = {
        {0, EventClass::ReadMiss, TableGuard::Always,
         {bump(TableCounter::Requests), act(ActionOp::SetDirState, 1),
          act(ActionOp::Stall)}, 1},
        {1, EventClass::ReadMiss, TableGuard::Always,
         {act(ActionOp::ReadMem),
          act(ActionOp::FillLine,
              static_cast<std::uint8_t>(LineState::Shared))}, 1},
        {1, EventClass::ReadHit, TableGuard::Always, {}, 1},
        {1, EventClass::EvictClean, TableGuard::Always,
         {act(ActionOp::DropLine)}, 1},
    };
    ASSERT_TRUE(t.validate().empty());

    TableProtocol proto(t, smallConfig());
    proto.access(0, 0, false);

    // One reference, classified once, replayed through two rows.
    EXPECT_EQ(proto.counts().readMisses, 1u);
    EXPECT_EQ(proto.counts().requests, 1u);
    EXPECT_EQ(proto.counts().memReads, 1u);
    EXPECT_EQ(proto.rowHits()[0], 1u);
    EXPECT_EQ(proto.rowHits()[1], 1u);

    // Second read is a plain hit: no replay, no stall.
    proto.access(0, 0, false);
    EXPECT_EQ(proto.counts().readHits, 1u);
    EXPECT_EQ(proto.rowHits()[2], 1u);
}

#if GTEST_HAS_DEATH_TEST
TEST(TableStall, UnproductiveStallLoopIsALivelockFatal)
{
    TransitionTable t;
    t.name = "livelock";
    t.stateNames = {"Spin"};
    t.constraints = {{0, SIZE_MAX, 0, 1}};
    t.rows = {
        {0, EventClass::ReadMiss, TableGuard::Always,
         {act(ActionOp::Stall)}, 0},
    };
    ASSERT_TRUE(t.validate().empty());
    TableProtocol proto(t, smallConfig());
    EXPECT_DEATH(proto.access(0, 0, false), "livelock");
}
#endif

TEST(TableMetadata, FlushSupportComesFromEvictRows)
{
    EXPECT_TRUE(TableProtocol(twoBitTable(), smallConfig())
                    .supportsFlush());

    TransitionTable t = tinyTable();
    t.rows.resize(5); // drop both eviction rows
    EXPECT_FALSE(TableProtocol(t, smallConfig()).supportsFlush());
}

TEST(TableMetadata, DirectoryCostComesFromTableBits)
{
    ProtoConfig pc = smallConfig(16);
    EXPECT_EQ(TableProtocol(twoBitTable(), pc).directoryBitsPerBlock(),
              2u);
    EXPECT_EQ(
        TableProtocol(fullMapTable(), pc).directoryBitsPerBlock(),
        17u);
    EXPECT_EQ(TableProtocol(moesiTable(), pc).directoryBitsPerBlock(),
              18u);
}

TEST(TableMetadata, DirStoreCountersComposeWithRamBudget)
{
    // A tiny directory RAM budget forces the tiered store onto its
    // compress/evict path; the aggregated counters must show it and
    // the protocol must still be coherent.
    ProtoConfig pc = smallConfig();
    pc.dirRamBudget = 2048;
    TableProtocol proto(twoBitTable(), pc);
    for (Addr a = 0; a < 4096; ++a)
        proto.access(a % 2, a, a % 3 == 0, 100 + a);
    const DirStoreCounters c = proto.dirStoreCounters();
    EXPECT_EQ(c.ramBudgetBytes, 2048u);
    EXPECT_GT(c.hotPages + c.coldPages + c.diskPages, 0u);
    proto.checkInvariants();
}

TEST(TableInlineHits, AnyStateWriteHitCleanRunsItsLineActions)
{
    // The inline hit path's Bump and SetLine only run for a row like
    // this one: a silent upgrade that counts an MREQUEST.
    TransitionTable t = tinyTable();
    t.rows[2] = {anyState, EventClass::WriteHitClean, TableGuard::Always,
                 {bump(TableCounter::MRequests),
                  act(ActionOp::SetLine,
                      static_cast<std::uint8_t>(LineState::Modified)),
                  act(ActionOp::WriteLine)},
                 anyState};
    ASSERT_TRUE(t.validate().empty());

    TableProtocol indexed(t, smallConfig());
    TableProtocol linear(t, smallConfig());
    linear.useLinearDispatch(true);
    for (TableProtocol *proto : {&indexed, &linear}) {
        proto->access(0, 5, false); // read miss: fill Shared
        EXPECT_EQ(proto->access(0, 5, true, 42), 42u);
        const CacheLine *l = proto->cache(0).peek(5);
        ASSERT_TRUE(l && l->valid());
        EXPECT_EQ(l->state, LineState::Modified);
        EXPECT_EQ(l->value, 42u);
        EXPECT_EQ(proto->access(0, 5, false), 42u); // read hit
        EXPECT_EQ(proto->counts().mrequests, 1u);
        EXPECT_EQ(proto->counts().writeHitsClean, 1u);
        EXPECT_EQ(proto->rowHits()[2], 1u);
        EXPECT_EQ(proto->rowHits()[0], 1u);
        EXPECT_EQ(proto->dirStateOf(5), 0u);
    }
    EXPECT_EQ(indexed.rowHits(), linear.rowHits());
}

TEST(TableDispatch, IndexedAndLinearDispatchAreEquivalent)
{
    // The dense (state x event-class) index may only skip rows that
    // could never match; every query must land on the same
    // declaration-ordered first match as the linear scan, and an
    // inline any-state hit must fire the row the scan finds.  Drive
    // each shipped table through an identical mixed workload with the
    // index on and off and require bit-identical observable state:
    // returned values, counters, row coverage, directory states.  The
    // budgeted run spreads the blocks one per directory page under a
    // 2 KiB budget: the scan reads the directory on every hit and the
    // inline path only touches it, so their tier counters must agree.
    struct Run
    {
        std::uint64_t budget;
        Addr stride;
    };
    for (const Run run : {Run{0, 1}, Run{2048, 4099}})
    for (const TransitionTable &t :
         {twoBitTable(), fullMapTable(), moesiTable()}) {
        ProtoConfig pc = smallConfig(4);
        pc.dirRamBudget = run.budget;
        TableProtocol indexed(t, pc);
        TableProtocol linear(t, pc);
        linear.useLinearDispatch(true);

        Rng rng(0x9e3779b97f4a7c15ULL);
        Value nonce = 0;
        for (int i = 0; i < 4000; ++i) {
            const ProcId p = static_cast<ProcId>(rng.range(4));
            const Addr a = rng.range(48) * run.stride;
            const bool w = rng.chance(0.3);
            const Value v = w ? ++nonce : 0;
            ASSERT_EQ(indexed.access(p, a, w, v),
                      linear.access(p, a, w, v))
                << t.name << " diverged at ref " << i;
            if (i % 500 == 499) {
                indexed.flushCache(p);
                linear.flushCache(p);
            }
        }
        EXPECT_EQ(indexed.rowHits(), linear.rowHits()) << t.name;
        std::vector<std::uint64_t> vi, vl;
        AccessCounts::forEachField(
            indexed.counts(),
            [&](const char *, std::uint64_t v) { vi.push_back(v); });
        AccessCounts::forEachField(
            linear.counts(),
            [&](const char *, std::uint64_t v) { vl.push_back(v); });
        EXPECT_EQ(vi, vl) << t.name;
        const DirStoreCounters di = indexed.dirStoreCounters();
        const DirStoreCounters dl = linear.dirStoreCounters();
        EXPECT_EQ(di.compressions, dl.compressions) << t.name;
        EXPECT_EQ(di.decompressions, dl.decompressions) << t.name;
        EXPECT_EQ(di.diskPageWrites, dl.diskPageWrites) << t.name;
        EXPECT_EQ(di.diskPageReads, dl.diskPageReads) << t.name;
        EXPECT_EQ(di.hotPages, dl.hotPages) << t.name;
        EXPECT_EQ(di.coldPages, dl.coldPages) << t.name;
        EXPECT_EQ(di.diskPages, dl.diskPages) << t.name;
        EXPECT_EQ(di.residentBytes, dl.residentBytes) << t.name;
        if (run.budget) {
            EXPECT_GT(di.decompressions, 1000u) << t.name;
        }
        for (Addr a = 0; a < 48; ++a)
            ASSERT_EQ(indexed.dirStateOf(a * run.stride),
                      linear.dirStateOf(a * run.stride))
                << t.name << " dir state differs at block " << a;
        indexed.checkInvariants();
        linear.checkInvariants();
    }
}

TEST(TableFactory, TableProtocolsAreRegistered)
{
    const auto names = protocolNames();
    for (const char *want :
         {"two_bit_table", "full_map_table", "moesi"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want << " missing from protocolNames()";
    }
    // The fuzz tier assumes the hand-written reference stays first.
    EXPECT_EQ(names.front(), "two_bit");
}

TEST(TableFactory, DescribeRowReadsLikeTheDocs)
{
    EXPECT_EQ(describeRow(twoBitTable(), 2),
              "(Present1, WriteHitClean, Always) -> PresentM");
    // An any-state row's state and next print as "*".
    EXPECT_EQ(describeRow(twoBitTable(), 0), "(*, ReadHit, Always) -> *");
}

} // namespace
} // namespace dir2b
