/**
 * @file
 * Geometry property sweep: every protocol must stay coherent across
 * processor counts (including the n=2 edge where n-2 = 0 useless
 * commands on owner queries), cache shapes (direct-mapped through
 * high associativity) and module counts.  Complements
 * test_property.cc's workload sweep.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"

namespace dir2b
{
namespace
{

struct GeomParam
{
    ProcId procs;
    std::size_t sets;
    std::size_t ways;
    /** The case name's _r suffix.  It was the row's replacement policy
     *  (0 LRU, 1 FIFO, 2 random) when the cache had three; every row
     *  now runs LRU, and the suffix keeps the case names unchanged. */
    int nameTag;
    ModuleId modules;
};

using Param = std::tuple<std::string, GeomParam>;

class GeometryProperty : public ::testing::TestWithParam<Param>
{
};

TEST_P(GeometryProperty, CoherentAcrossShapes)
{
    const auto &[protoName, g] = GetParam();

    ProtoConfig cfg;
    cfg.numProcs = g.procs;
    cfg.cacheGeom.sets = g.sets;
    cfg.cacheGeom.ways = g.ways;
    cfg.numModules = g.modules;
    cfg.tbCapacity = 8;
    cfg.biasCapacity = 4;
    cfg.nonCacheableBase = sharedRegionBase;

    auto proto = makeProtocol(protoName, cfg);

    SyntheticConfig scfg;
    scfg.numProcs = g.procs;
    scfg.q = 0.2;
    scfg.w = 0.4;
    scfg.sharedBlocks = 10;
    scfg.privateBlocks = 3 * g.sets * g.ways; // force evictions
    scfg.hotBlocks = g.sets * g.ways / 2 + 1;
    scfg.seed = 77;
    SyntheticStream stream(scfg);

    RunOptions opts;
    opts.numRefs = 8000;
    opts.invariantEvery = 128;
    const RunResult r = runFunctional(*proto, stream, opts);

    EXPECT_EQ(r.counts.refs(), opts.numRefs);
    // Eviction traffic must actually have occurred (the sweep's
    // purpose): miss ratio bounded away from zero.
    EXPECT_GT(r.counts.misses(), opts.numRefs / 100);
    proto->checkInvariants();
}

const GeomParam geometries[] = {
    {2, 4, 1, 0, 1},  // minimal: 2 procs, DM
    {4, 1, 4, 0, 2},  // fully associative
    {4, 8, 2, 1, 3},  // 2-way, three modules
    {4, 8, 2, 2, 2},  // 2-way, two modules
    {8, 16, 1, 0, 5}, // direct-mapped, odd mods
    {16, 4, 2, 2, 4}, // many procs, tiny caches
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryProperty,
    ::testing::Combine(
        ::testing::Values("two_bit", "two_bit_tb", "two_bit_wt",
                          "full_map", "full_map_local", "dup_dir",
                          "classical", "write_once", "illinois",
                          "software"),
        ::testing::ValuesIn(geometries)),
    [](const ::testing::TestParamInfo<Param> &info) {
        // No structured bindings here: a comma inside [] would split
        // the INSTANTIATE macro's arguments.
        const std::string &name = std::get<0>(info.param);
        const GeomParam &g = std::get<1>(info.param);
        return name + "_p" + std::to_string(g.procs) + "_s" +
               std::to_string(g.sets) + "x" + std::to_string(g.ways) +
               "_m" + std::to_string(g.modules) + "_r" +
               std::to_string(g.nameTag);
    });

TEST(EdgeCase, TwoProcessorOwnerQueryHasZeroUseless)
{
    // With n=2 a BROADQUERY reaches exactly the owner: n-2 = 0
    // useless commands — the boundary of the §4.2 formulas.
    ProtoConfig cfg;
    cfg.numProcs = 2;
    cfg.cacheGeom.sets = 8;
    cfg.cacheGeom.ways = 2;
    cfg.numModules = 1;
    auto proto = makeProtocol("two_bit", cfg);
    proto->access(0, 5, true, 1);
    proto->access(1, 5, false);
    EXPECT_EQ(proto->lastDelta().broadcasts, 1u);
    EXPECT_EQ(proto->lastDelta().broadcastCmds, 1u);
    EXPECT_EQ(proto->lastDelta().uselessCmds, 0u);
}

TEST(EdgeCase, SingleModuleAndManyModulesAgreeOnCounts)
{
    // The module count partitions the directory but must not change
    // protocol behaviour: identical traces give identical counters.
    auto run = [](ModuleId modules) {
        ProtoConfig cfg;
        cfg.numProcs = 4;
        cfg.cacheGeom.sets = 8;
        cfg.cacheGeom.ways = 2;
        cfg.numModules = modules;
        auto proto = makeProtocol("two_bit", cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.2;
        scfg.w = 0.4;
        scfg.seed = 5;
        SyntheticStream stream(scfg);
        RunOptions opts;
        opts.numRefs = 5000;
        return runFunctional(*proto, stream, opts).counts;
    };
    const AccessCounts one = run(1);
    const AccessCounts many = run(7);
    EXPECT_EQ(one.uselessCmds, many.uselessCmds);
    EXPECT_EQ(one.broadcasts, many.broadcasts);
    EXPECT_EQ(one.invalidations, many.invalidations);
    EXPECT_EQ(one.writebacks, many.writebacks);
    EXPECT_EQ(one.netMessages, many.netMessages);
}

} // namespace
} // namespace dir2b
