/**
 * @file
 * Unit tests for reference streams: synthetic generator statistics,
 * structured workload shapes, and trace round-tripping.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace dir2b
{
namespace
{

TEST(SyntheticStream, RoundRobinAcrossProcessors)
{
    SyntheticConfig cfg;
    cfg.numProcs = 4;
    SyntheticStream s(cfg);
    for (int i = 0; i < 20; ++i) {
        auto r = s.next();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->proc, static_cast<ProcId>(i % 4));
    }
}

TEST(SyntheticStream, SharedFractionMatchesQ)
{
    SyntheticConfig cfg;
    cfg.numProcs = 8;
    cfg.q = 0.1;
    SyntheticStream s(cfg);
    std::uint64_t shared = 0;
    const int total = 50000;
    for (int i = 0; i < total; ++i) {
        auto r = s.next();
        if (r->addr >= sharedRegionBase)
            ++shared;
    }
    EXPECT_NEAR(static_cast<double>(shared) / total, 0.1, 0.01);
    EXPECT_NEAR(s.measuredSharedFraction(), 0.1, 0.01);
}

TEST(SyntheticStream, SharedWritesMatchW)
{
    SyntheticConfig cfg;
    cfg.numProcs = 4;
    cfg.q = 0.5;
    cfg.w = 0.3;
    SyntheticStream s(cfg);
    std::uint64_t sharedRefs = 0;
    std::uint64_t sharedWrites = 0;
    for (int i = 0; i < 50000; ++i) {
        auto r = s.next();
        if (r->addr >= sharedRegionBase) {
            ++sharedRefs;
            if (r->write)
                ++sharedWrites;
        }
    }
    EXPECT_NEAR(static_cast<double>(sharedWrites) / sharedRefs, 0.3,
                0.02);
}

TEST(SyntheticStream, SharedBlocksStayInRange)
{
    SyntheticConfig cfg;
    cfg.sharedBlocks = 16;
    cfg.q = 1.0;
    SyntheticStream s(cfg);
    for (int i = 0; i < 1000; ++i) {
        auto r = s.next();
        EXPECT_GE(r->addr, sharedRegionBase);
        EXPECT_LT(r->addr, sharedRegionBase + 16);
    }
}

TEST(SyntheticStream, PrivateRegionsAreDisjointPerProcessor)
{
    SyntheticConfig cfg;
    cfg.numProcs = 4;
    cfg.q = 0.0;
    SyntheticStream s(cfg);
    for (int i = 0; i < 4000; ++i) {
        auto r = s.next();
        EXPECT_GE(r->addr, privateRegionBase(r->proc));
        EXPECT_LT(r->addr, privateRegionBase(r->proc + 1));
    }
}

TEST(SyntheticStream, DeterministicForSameSeed)
{
    SyntheticConfig cfg;
    cfg.seed = 99;
    SyntheticStream a(cfg);
    SyntheticStream b(cfg);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(*a.next(), *b.next());
}

/** The constructor refuses every configuration a stream cannot run,
 *  instead of panicking inside a later draw or silently emitting no
 *  shared references. */
TEST(SyntheticDeath, RejectsEmptyPrivateSet)
{
    SyntheticConfig cfg;
    cfg.privateBlocks = 0;
    cfg.hotBlocks = 0;
    EXPECT_EXIT(SyntheticStream s(cfg), testing::ExitedWithCode(1),
                "needs at least one private block");
}

TEST(SyntheticDeath, RejectsBadProbabilities)
{
    const std::pair<double SyntheticConfig::*, const char *> fields[] = {
        {&SyntheticConfig::q, "q"},
        {&SyntheticConfig::w, "w"},
        {&SyntheticConfig::sharedLocality, "sharedLocality"},
        {&SyntheticConfig::hotFraction, "hotFraction"},
        {&SyntheticConfig::privateWriteFrac, "privateWriteFrac"}};
    for (const auto &[field, name] : fields) {
        for (const double bad : {-0.1, 1.5, std::nan("")}) {
            SyntheticConfig cfg;
            cfg.*field = bad;
            EXPECT_EXIT(SyntheticStream s(cfg),
                        testing::ExitedWithCode(1),
                        std::string("must be in \\[0,1\\]: ") + name +
                            " is ");
        }
    }
}

TEST(Workload, ProducerConsumerRoles)
{
    WorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.privateFraction = 0.0; // shared pattern only
    ProducerConsumerWorkload w(cfg);
    for (int i = 0; i < 400; ++i) {
        auto r = w.next();
        if (r->proc == 0)
            EXPECT_TRUE(r->write) << "producer must write";
        else
            EXPECT_FALSE(r->write) << "consumers must read";
        EXPECT_GE(r->addr, sharedRegionBase);
    }
}

TEST(Workload, LockContentionAlternatesReadWrite)
{
    WorkloadConfig cfg;
    cfg.numProcs = 2;
    cfg.privateFraction = 0.0;
    LockContentionWorkload w(cfg, 1);
    // Per processor: read lock, then write the same lock block.
    std::vector<MemRef> p0;
    for (int i = 0; i < 40; ++i) {
        auto r = w.next();
        if (r->proc == 0)
            p0.push_back(*r);
    }
    for (std::size_t i = 0; i + 1 < p0.size(); i += 2) {
        EXPECT_FALSE(p0[i].write);
        EXPECT_TRUE(p0[i + 1].write);
        EXPECT_EQ(p0[i].addr, p0[i + 1].addr);
    }
}

TEST(Workload, MigratoryRotatesBlockOwnership)
{
    WorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.sharedBlocks = 4;
    cfg.privateFraction = 0.0;
    MigratoryWorkload w(cfg, 2);
    // Each reference stays in the shared region and mixes reads and
    // writes roughly half and half.
    int writes = 0;
    const int total = 400;
    for (int i = 0; i < total; ++i) {
        auto r = w.next();
        EXPECT_GE(r->addr, sharedRegionBase);
        if (r->write)
            ++writes;
    }
    EXPECT_NEAR(static_cast<double>(writes) / total, 0.5, 0.1);
}

TEST(Workload, ReadMostlyWriteFractionIsLow)
{
    WorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.privateFraction = 0.0;
    ReadMostlyWorkload w(cfg, 0.02);
    int writes = 0;
    const int total = 20000;
    for (int i = 0; i < total; ++i) {
        if (w.next()->write)
            ++writes;
    }
    EXPECT_NEAR(static_cast<double>(writes) / total, 0.02, 0.01);
}

TEST(Workload, TaskMigrationMovesIssuer)
{
    WorkloadConfig cfg;
    cfg.numProcs = 4;
    cfg.privateBlocks = 8;
    TaskMigrationWorkload w(cfg, 100);
    // Before the first migration, task t runs on processor t.
    for (int i = 0; i < 50; ++i) {
        auto r = w.next();
        const auto task = static_cast<ProcId>(
            (r->addr - privateRegionBase(0)) / (1ULL << 20));
        EXPECT_EQ(r->proc, task) << "task should be on its home proc";
    }
    // Run past a migration: issuers must shift by one.
    for (int i = 50; i < 150; ++i)
        w.next();
    EXPECT_GE(w.migrations(), 1u);
}

TEST(TraceIo, RoundTrip)
{
    std::vector<MemRef> refs = {
        {0, 0x10, false}, {1, 0x20, true}, {3, sharedRegionBase, true}};
    std::ostringstream os;
    writeTrace(os, refs);
    std::istringstream is(os.str());
    const auto back = readTrace(is);
    EXPECT_EQ(back, refs);
}

TEST(TraceIo, SkipsCommentsAndBlanks)
{
    std::istringstream is("# comment\n\n0 R 1f\n  \n1 W ff\n");
    const auto refs = readTrace(is);
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[0], (MemRef{0, 0x1f, false}));
    EXPECT_EQ(refs[1], (MemRef{1, 0xff, true}));
}

TEST(TraceIo, RecordAndReplayMatchesSource)
{
    SyntheticConfig cfg;
    cfg.seed = 7;
    SyntheticStream src(cfg);
    const auto recorded = recordStream(src, 100);
    ASSERT_EQ(recorded.size(), 100u);

    SyntheticStream src2(cfg);
    VectorStream replay(recorded);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(*replay.next(), *src2.next());
    EXPECT_FALSE(replay.next().has_value());
    replay.rewind();
    EXPECT_TRUE(replay.next().has_value());
}

TEST(MemRefToString, Format)
{
    EXPECT_EQ(toString(MemRef{3, 0x2a, true}), "P3 W 0x2a");
    EXPECT_EQ(toString(MemRef{0, 0xff, false}), "P0 R 0xff");
}

} // namespace
} // namespace dir2b
