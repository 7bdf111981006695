/**
 * @file
 * Property tests: every protocol of the spectrum, driven by every
 * workload class over multiple seeds, must satisfy
 *
 *  1. the paper's coherence definition (§1): every read returns the
 *     most recently written value (checked by the oracle on every
 *     single read);
 *  2. its own structural invariants (directory/cache agreement),
 *     checked periodically;
 *  3. protocol-specific global properties (full-map never useless,
 *     two-bit broadcast arithmetic, write-through memory currency).
 *
 * Small caches are used deliberately so replacement traffic (EJECTs,
 * the Present* decay anomaly) is constantly exercised.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "proto/protocol_factory.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace dir2b
{
namespace
{

std::unique_ptr<RefStream>
makeWorkload(const std::string &name, ProcId procs, std::uint64_t seed)
{
    if (name.rfind("synthetic_", 0) == 0) {
        SyntheticConfig cfg;
        cfg.numProcs = procs;
        cfg.seed = seed;
        cfg.privateBlocks = 48;
        cfg.hotBlocks = 12;
        if (name == "synthetic_low") {
            cfg.q = 0.01;
            cfg.w = 0.2;
        } else if (name == "synthetic_moderate") {
            cfg.q = 0.05;
            cfg.w = 0.2;
        } else {
            cfg.q = 0.10;
            cfg.w = 0.4;
        }
        return std::make_unique<SyntheticStream>(cfg);
    }

    WorkloadConfig cfg;
    cfg.numProcs = procs;
    cfg.seed = seed;
    cfg.privateBlocks = 24;
    cfg.privateFraction = 0.6;
    if (name == "producer_consumer")
        return std::make_unique<ProducerConsumerWorkload>(cfg);
    if (name == "migratory")
        return std::make_unique<MigratoryWorkload>(cfg);
    if (name == "lock")
        return std::make_unique<LockContentionWorkload>(cfg);
    if (name == "read_mostly")
        return std::make_unique<ReadMostlyWorkload>(cfg);
    if (name == "task_migration")
        return std::make_unique<TaskMigrationWorkload>(cfg, 500);
    ADD_FAILURE() << "unknown workload " << name;
    return nullptr;
}

using Param = std::tuple<std::string, std::string, std::uint64_t>;

class ProtocolProperty : public ::testing::TestWithParam<Param>
{
};

TEST_P(ProtocolProperty, CoherentUnderWorkload)
{
    const auto &[protoName, workloadName, seed] = GetParam();

    // The software scheme's classification contract cannot express
    // task migration (private data touched from two processors).
    if (protoName == "software" && workloadName == "task_migration")
        GTEST_SKIP() << "software scheme forbids task migration";

    ProtoConfig cfg;
    cfg.numProcs = 4;
    cfg.cacheGeom.sets = 8;
    cfg.cacheGeom.ways = 2;
    cfg.numModules = 3;
    cfg.tbCapacity = 16;
    cfg.biasCapacity = 8;
    cfg.nonCacheableBase = sharedRegionBase;

    auto proto = makeProtocol(protoName, cfg);
    auto stream = makeWorkload(workloadName, cfg.numProcs, seed);
    ASSERT_NE(stream, nullptr);

    RunOptions opts;
    opts.numRefs = 10000;
    opts.checkCoherence = true;
    opts.invariantEvery = 64;

    const RunResult r = runFunctional(*proto, *stream, opts);

    // Bookkeeping identities that hold for every protocol.
    EXPECT_EQ(r.counts.refs(), opts.numRefs);
    EXPECT_EQ(r.counts.reads,
              r.counts.readHits + r.counts.readMisses);
    EXPECT_EQ(r.counts.writes,
              r.counts.writeHits + r.counts.writeMisses);
    EXPECT_LE(r.counts.uselessCmds, r.counts.broadcastCmds);

    // Directed schemes never send a useless command.
    if (protoName == "full_map" || protoName == "full_map_local" ||
        protoName == "dup_dir" || protoName == "software") {
        EXPECT_EQ(r.counts.uselessCmds, 0u);
        EXPECT_EQ(r.counts.broadcasts, 0u);
    }

    // Broadcast arithmetic: every two-bit broadcast reaches exactly
    // n-1 caches.
    if (protoName == "two_bit") {
        EXPECT_EQ(r.counts.broadcastCmds,
                  r.counts.broadcasts * (cfg.numProcs - 1));
    }

    proto->checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, ProtocolProperty,
    ::testing::Combine(
        ::testing::Values("two_bit", "two_bit_tb", "two_bit_wt",
                          "full_map", "full_map_local", "dup_dir",
                          "classical", "write_once", "illinois",
                          "software"),
        ::testing::Values("synthetic_low", "synthetic_moderate",
                          "synthetic_high", "producer_consumer",
                          "migratory", "lock", "read_mostly",
                          "task_migration"),
        ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<Param> &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
               "_s" + std::to_string(std::get<2>(info.param));
    });

/**
 * Replaying one identical recorded trace through every protocol must
 * leave logically identical memory contents: for every block, the
 * "current value" (memory, or the unique dirty copy) agrees across
 * schemes.
 */
TEST(CrossProtocol, IdenticalTraceSameFinalValues)
{
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.2;
    scfg.w = 0.4;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 24;
    scfg.hotBlocks = 8;
    scfg.seed = 123;
    SyntheticStream src(scfg);
    const auto trace = recordStream(src, 5000);

    ProtoConfig cfg;
    cfg.numProcs = 4;
    cfg.cacheGeom.sets = 8;
    cfg.cacheGeom.ways = 2;
    cfg.numModules = 2;
    cfg.tbCapacity = 16;
    cfg.nonCacheableBase = sharedRegionBase;

    // The oracle *is* the cross-protocol referee: runFunctional checks
    // every read of every protocol against the same last-write shadow,
    // so agreement with the oracle implies pairwise agreement.
    for (const auto &name : protocolNames()) {
        auto proto = makeProtocol(name, cfg);
        VectorStream replay(trace);
        RunOptions opts;
        opts.numRefs = trace.size();
        opts.invariantEvery = 256;
        runFunctional(*proto, replay, opts);
    }
}

} // namespace
} // namespace dir2b
