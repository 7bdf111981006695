/**
 * @file
 * Exhaustive explorer acceptance tests (ctest label: model_check).
 *
 * The tentpole bar: every factory protocol (plus the no-Present1
 * ablation) explored to closure at (2 caches x 1 block) and (2 caches
 * x 2 blocks) with zero invariant violations.  On top of that the
 * suite pins the engine's own machinery — the search must close, the
 * per-access §4.2 command-count check must actually fire on the plain
 * two-bit scheme, and a grid run must be deterministic regardless of
 * worker-pool width.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/explorer.hh"
#include "proto/protocol_factory.hh"
#include "report/report.hh"

#ifndef DIR2B_FIXTURES
#define DIR2B_FIXTURES "tests/fixtures"
#endif

namespace dir2b
{
namespace
{

std::vector<std::string>
allCheckedProtocols()
{
    std::vector<std::string> names = protocolNames();
    names.push_back("two_bit_nop1");
    return names;
}

ExplorerConfig
cell(const std::string &proto, std::size_t blocks)
{
    ExplorerConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = 2;
    cfg.numBlocks = blocks;
    cfg.sets = 2;
    cfg.ways = 2; // capacity 4 >= blocks: no hidden replacement state
    return cfg;
}

TEST(ModelCheck, AllProtocolsTwoProcsOneBlock)
{
    for (const auto &name : allCheckedProtocols()) {
        const ExploreResult r = explore(cell(name, 1));
        EXPECT_TRUE(r.closed) << name;
        // The software scheme classifies the multi-writer explorer
        // blocks non-cacheable, so its reachable set is the single
        // memory-only state; every caching scheme must move.
        if (name == "software")
            EXPECT_EQ(r.statesVisited, 1u);
        else
            EXPECT_GT(r.statesVisited, 1u) << name;
        EXPECT_GT(r.transitionsChecked, 0u) << name;
        EXPECT_TRUE(r.violations.empty())
            << name << ": " << r.violations.front().kind << " — "
            << r.violations.front().detail;
    }
}

TEST(ModelCheck, AllProtocolsTwoProcsTwoBlocks)
{
    for (const auto &name : allCheckedProtocols()) {
        const ExploreResult r = explore(cell(name, 2));
        EXPECT_TRUE(r.closed) << name;
        EXPECT_TRUE(r.violations.empty())
            << name << ": " << r.violations.front().kind << " — "
            << r.violations.front().detail;
    }
}

TEST(ModelCheck, ThreeProcsOneBlockCoreSchemes)
{
    // A third processor is what makes Present* with two remote holders
    // reachable; run it for the paper's scheme and the two directory
    // baselines it is measured against.
    for (const std::string name :
         {"two_bit", "two_bit_nop1", "two_bit_wt", "full_map",
          "dup_dir"}) {
        ExplorerConfig cfg = cell(name, 1);
        cfg.numProcs = 3;
        const ExploreResult r = explore(cfg);
        EXPECT_TRUE(r.closed) << name;
        EXPECT_TRUE(r.violations.empty())
            << name << ": " << r.violations.front().detail;
    }
}

TEST(ModelCheck, ReplacementPressureCell)
{
    // One set, one way: every second block reference evicts the other
    // block, exercising the §3.2.1 replacement transitions.  ways == 1
    // keeps victim selection deterministic, so the signature search
    // stays sound.
    for (const auto &name : allCheckedProtocols()) {
        ExplorerConfig cfg = cell(name, 2);
        cfg.sets = 1;
        cfg.ways = 1;
        const ExploreResult r = explore(cfg);
        EXPECT_TRUE(r.closed) << name;
        EXPECT_TRUE(r.violations.empty())
            << name << ": " << r.violations.front().detail;
    }
}

TEST(ModelCheck, FlushActionCoversEject)
{
    // Schemes implementing flushCache get the §2.2 eject action in
    // their alphabet; the state count must strictly grow versus the
    // flush-free alphabet (flush reaches Absent-with-history states).
    ExplorerConfig with = cell("two_bit", 1);
    ExplorerConfig without = with;
    without.includeFlush = false;
    ASSERT_TRUE(protocolSupportsFlush("two_bit"));
    ASSERT_TRUE(protocolSupportsFlush("dup_dir"));     // inherited
    ASSERT_FALSE(protocolSupportsFlush("illinois"));
    ASSERT_FALSE(protocolSupportsFlush("software"));
    const ExploreResult rw = explore(with);
    const ExploreResult ro = explore(without);
    EXPECT_TRUE(rw.closed);
    EXPECT_TRUE(ro.closed);
    EXPECT_TRUE(rw.violations.empty());
    EXPECT_GE(rw.statesVisited, ro.statesVisited);
    EXPECT_GT(rw.transitionsChecked, ro.transitionsChecked);
}

TEST(ModelCheck, SearchClosesWellInsideBounds)
{
    // The abstraction is what keeps the reachable set finite; a bug
    // that leaks concrete values into the signature would blow these
    // numbers up.  Generous ceilings, but orders of magnitude below
    // the safety valves.
    ExplorerConfig cfg = cell("two_bit", 2);
    const ExploreResult r = explore(cfg);
    EXPECT_TRUE(r.closed);
    EXPECT_LT(r.statesVisited, 20000u);
    EXPECT_LE(r.depthReached, cfg.maxDepth);
}

TEST(ModelCheck, DepthBoundReportsUnclosed)
{
    ExplorerConfig cfg = cell("two_bit", 2);
    cfg.maxDepth = 1;
    const ExploreResult r = explore(cfg);
    EXPECT_FALSE(r.closed);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.depthReached, 1u);
}

TEST(ModelCheck, DefaultGridMeetsAcceptanceBar)
{
    // The grid the model_check tool runs must include both acceptance
    // configurations for every checked protocol.
    const auto grid = defaultExplorerGrid();
    for (const auto &name : allCheckedProtocols()) {
        for (std::size_t blocks : {std::size_t{1}, std::size_t{2}}) {
            const bool present =
                std::any_of(grid.begin(), grid.end(),
                            [&](const ExplorerConfig &c) {
                                return c.protocol == name &&
                                       c.numProcs == 2 &&
                                       c.numBlocks == blocks;
                            });
            EXPECT_TRUE(present)
                << name << " x " << blocks << " block(s) missing";
        }
    }
}

/** The default-grid cells of one protocol: the two acceptance cells
 *  plus the direct-mapped replacement-pressure cell.  Row coverage is
 *  defined over their UNION — evict rows only fire in the tight
 *  cell. */
std::vector<ExplorerConfig>
tableGridFor(const std::string &name)
{
    ExplorerConfig tight = cell(name, 2);
    tight.sets = 1;
    tight.ways = 1;
    return {cell(name, 1), cell(name, 2), tight};
}

TEST(ModelCheck, TableProtocolsHaveNoUnreachableRows)
{
    // The coverage regression of the table engine: across the default
    // grid every row of every shipped table fires at least once.  A
    // row nothing can reach is either dead weight or a transition the
    // explorer's action alphabet can no longer provoke — both are
    // bugs.
    for (const std::string name : {"two_bit_table", "full_map_table",
                                   "full_map", "dup_dir", "moesi"}) {
        const auto grid = tableGridFor(name);
        const auto results = exploreGrid(grid);
        ASSERT_EQ(results.size(), grid.size());
        std::vector<std::uint64_t> fired;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ExploreResult &r = results[i];
            EXPECT_TRUE(r.closed) << name << " cell " << i;
            EXPECT_TRUE(r.violations.empty())
                << name << " cell " << i << ": "
                << r.violations.front().detail;
            ASSERT_GT(r.totalRows, 0u) << name;
            fired.resize(r.totalRows, 0);
            for (std::size_t row = 0; row < r.totalRows; ++row)
                fired[row] += r.rowsFired[row];
        }
        for (std::size_t row = 0; row < fired.size(); ++row)
            EXPECT_GT(fired[row], 0u)
                << name << ": row " << row
                << " never fired across the default grid";
    }
}

TEST(ModelCheck, HandWrittenProtocolsReportNoRowCoverage)
{
    const ExploreResult r = explore(cell("two_bit", 1));
    EXPECT_EQ(r.totalRows, 0u);
    EXPECT_TRUE(r.rowsFired.empty());
    EXPECT_TRUE(r.unreachableRows.empty());
}

TEST(ModelCheck, MoesiFixtureMatchesFreshExploration)
{
    // tests/fixtures/moesi.check is the committed model-check artifact
    // of the MOESI table (regenerate with
    //   model_check --protocol moesi --no-fuzz --json ...).
    // A fresh exploration must reproduce it cell for cell; drift means
    // the table, the explorer, or the abstraction changed and the
    // fixture needs a deliberate update.
    const Json fix = readArtifact(DIR2B_FIXTURES "/moesi.check");
    ASSERT_TRUE(fix.contains("cells"));
    ASSERT_TRUE(fix.contains("summary"));

    const Json &summary = fix.at("summary");
    EXPECT_TRUE(summary.at("ok").asBool());
    EXPECT_EQ(summary.at("explore_violations").asUint(), 0u);
    EXPECT_EQ(summary.at("table_dead_rows").asUint(), 0u);
    EXPECT_EQ(summary.at("table_coverage")
                  .at("moesi")
                  .at("unreachable_rows")
                  .asUint(),
              0u);

    const auto grid = tableGridFor("moesi");
    const auto fresh = exploreGrid(grid);
    const auto &cells = fix.at("cells").elements();
    ASSERT_EQ(cells.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const Json &c = cells[i];
        ASSERT_EQ(c.at("section").asString(), "explore");
        EXPECT_EQ(c.at("protocol").asString(), "moesi");
        EXPECT_EQ(c.at("states").asUint(), fresh[i].statesVisited)
            << "cell " << i;
        EXPECT_EQ(c.at("transitions").asUint(),
                  fresh[i].transitionsChecked)
            << "cell " << i;
        EXPECT_EQ(c.at("closed").asBool(), fresh[i].closed);
        EXPECT_EQ(c.at("violations").asUint(), 0u);
        EXPECT_EQ(c.at("total_rows").asUint(), fresh[i].totalRows);
        EXPECT_EQ(c.at("unreachable_rows").asUint(),
                  fresh[i].unreachableRows.size());
    }
}

TEST(ModelCheck, GridResultsIndependentOfThreadCount)
{
    // Grid dispatch goes through the shared pool; cells are
    // deterministic, so the per-cell numbers must be identical at any
    // width.
    std::vector<ExplorerConfig> grid = {
        cell("two_bit", 1), cell("two_bit", 2), cell("full_map", 1),
        cell("illinois", 2), cell("two_bit_wt", 2),
    };
    const auto serial = exploreGrid(grid, 1);
    const auto wide = exploreGrid(grid, 4);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(wide.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(serial[i].statesVisited, wide[i].statesVisited) << i;
        EXPECT_EQ(serial[i].transitionsChecked,
                  wide[i].transitionsChecked)
            << i;
        EXPECT_EQ(serial[i].closed, wide[i].closed) << i;
        EXPECT_EQ(serial[i].violations.empty(),
                  wide[i].violations.empty())
            << i;
    }
}

TEST(ModelCheck, ActionToStringIsReadable)
{
    CheckAction a;
    a.kind = CheckAction::Kind::Store;
    a.proc = 1;
    a.addr = 3;
    EXPECT_EQ(toString(a), "P1 STORE 3");
    a.kind = CheckAction::Kind::Flush;
    EXPECT_EQ(toString(a), "P1 FLUSH");
}

} // namespace
} // namespace dir2b
