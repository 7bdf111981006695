/**
 * @file
 * Replay identity: a recorded binary trace, replayed through the
 * zero-copy mmap frontends, must reproduce the simulator's pinned
 * digests bit for bit.
 *
 * Timed tier: the synthetic workload behind every golden digest in
 * test_golden_digest.cc is recorded once (round-robin, the order
 * SyntheticStream::next() emits), then fed back through
 * TraceProcSource, and all seven checked-in digests must come out
 * unchanged.  Functional tier: the
 * fixed contended trace behind the pinned table-engine digests in
 * test_table_lockstep.cc is recorded and replayed per-record and
 * batched; same constants.  Finally runFunctional over the mmap
 * stream and runFunctionalBatched over block spans must agree on
 * every statistic for the same trace.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "check/differ.hh"
#include "proto/protocol_factory.hh"
#include "stats_digest.hh"
#include "system/func_system.hh"
#include "temp_path.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"

namespace dir2b
{
namespace
{

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
    {
        path_ = testTempPath("trace_replay_" + tag + ".d2t");
        std::remove(path_.c_str());
    }

    ~TempTrace() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ------------------------------------------------- timed-tier replay

/** The synthetic workload behind test_golden_digest.cc's digests. */
SyntheticConfig
goldenWorkload()
{
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    return scfg;
}

constexpr std::uint64_t goldenRefsPerProc = 400;

/** Record the golden workload as a binary trace, in the round-robin
 *  order next() emits: each processor's subsequence is then exactly
 *  its nextFor() sequence, so per-processor replay is the recorded
 *  run. */
void
recordGoldenWorkload(const std::string &path)
{
    SyntheticStream stream(goldenWorkload());
    TraceWriter w(path, /*blockRecords=*/128);
    for (std::uint64_t n = 0; n < 4 * goldenRefsPerProc; ++n)
        w.append(*stream.next());
    w.finish();
}

/** digestRun from test_golden_digest.cc, fed from the mmap'ed trace
 *  instead of the live generator. */
std::uint64_t
digestReplay(const TraceReader &reader, TimedProto proto,
             bool perBlock, NetKind net)
{
    TimedConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = 4;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = perBlock;
    cfg.network = net;

    TraceProcSource procSrc(reader, cfg.numProcs);
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return procSrc.next(p);
        },
        goldenRefsPerProc);
    return digestStats(r, sys);
}

struct TimedGoldenCase
{
    const char *name;
    TimedProto proto;
    bool perBlock;
    NetKind net;
    std::uint64_t digest;
};

// The same seven constants test_golden_digest.cc pins.
const TimedGoldenCase timedGoldenCases[] = {
    {"two_bit_serial_ideal", TimedProto::TwoBit, false, NetKind::Ideal,
     0x26d8969a443767abULL},
    {"two_bit_perblock_crossbar", TimedProto::TwoBit, true,
     NetKind::Crossbar, 0x51bb7ead2ab4e2e2ULL},
    {"two_bit_serial_bus", TimedProto::TwoBit, false, NetKind::Bus,
     0x9fc95fb8e06d85f1ULL},
    {"full_map_serial_ideal", TimedProto::FullMap, false,
     NetKind::Ideal, 0xffc915f80b00b7ccULL},
    {"full_map_perblock_crossbar", TimedProto::FullMap, true,
     NetKind::Crossbar, 0x5994774b5ae7d0dbULL},
    {"yen_fu_serial_ideal", TimedProto::YenFu, false, NetKind::Ideal,
     0xfe831cf225b0e715ULL},
    {"yen_fu_perblock_crossbar", TimedProto::YenFu, true,
     NetKind::Crossbar, 0x0d92ed141c55caf7ULL},
};

TEST(TraceReplay, TimedReplayMatchesAllGoldenDigests)
{
    TempTrace t("timed");
    recordGoldenWorkload(t.path());
    TraceReader reader(t.path());
    ASSERT_EQ(reader.totalRecords(), 4 * goldenRefsPerProc);
    for (const auto &c : timedGoldenCases) {
        const std::uint64_t got =
            digestReplay(reader, c.proto, c.perBlock, c.net);
        EXPECT_EQ(got, c.digest)
            << c.name << " (replay): digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

// -------------------------------------------- functional-tier replay

/** The fixed contended trace behind test_table_lockstep.cc's pinned
 *  functional digests. */
std::vector<MemRef>
tableGoldenTrace(FuzzConfig &fc)
{
    fc.numSeeds = 1;
    fc.refsPerSeed = 5000;
    fc.baseSeed = 0xd16257;
    return fuzzTrace(fc, 0);
}

/** digestProtocol from test_table_lockstep.cc, with the access loop
 *  fed by `emit` instead of a vector walk. */
template <typename EmitRefs>
std::uint64_t
digestTableProtocol(const std::string &name, const FuzzConfig &fc,
                    const std::vector<MemRef> &trace, EmitRefs emit)
{
    ProtoConfig pc;
    pc.numProcs = fc.diff.numProcs;
    pc.numModules = fc.diff.numModules;
    pc.cacheGeom.sets = fc.diff.sets;
    pc.cacheGeom.ways = fc.diff.ways;
    const auto proto = makeProtocol(name, pc);

    Value nonce = 0;
    emit([&](ProcId p, Addr a, bool write) {
        proto->access(p, a, write, write ? ++nonce : 0);
    });

    std::uint64_t h = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        proto->counts(),
        [&](const char *, std::uint64_t v) { h = fold(h, v); });
    for (ProcId p = 0; p < pc.numProcs; ++p) {
        h = fold(h, proto->cmdsReceivedBy(p));
        h = fold(h, proto->uselessReceivedBy(p));
        h = fold(h, proto->refsIssuedBy(p));
    }
    std::set<Addr> blocks;
    for (const MemRef &r : trace)
        blocks.insert(r.addr);
    for (const Addr a : blocks) {
        Value v = proto->memValue(a);
        for (ProcId p = 0; p < pc.numProcs; ++p) {
            const CacheLine *l = proto->cache(p).peek(a);
            if (l && l->valid() && l->dirty())
                v = l->value;
        }
        h = fold(h, v);
    }
    return h;
}

struct TableGoldenCase
{
    const char *table;
    std::uint64_t digest;
};

// The same constants test_table_lockstep.cc pins.
const TableGoldenCase tableGoldenCases[] = {
    {"two_bit_table", 0xfeb02f0eedaad5cdULL},
    {"full_map_table", 0x694edcae1778aa2cULL},
    {"moesi", 0xc84e87d6891f3443ULL},
};

TEST(TraceReplay, FunctionalReplayMatchesPinnedTableDigests)
{
    FuzzConfig fc;
    const std::vector<MemRef> trace = tableGoldenTrace(fc);

    TempTrace t("table");
    {
        TraceWriter w(t.path(), /*blockRecords=*/256);
        w.append(trace.data(), trace.size());
        w.finish();
    }
    TraceReader reader(t.path());
    ASSERT_EQ(reader.totalRecords(), trace.size());

    for (const auto &c : tableGoldenCases) {
        // Per-record mmap replay.
        const std::uint64_t perRecord = digestTableProtocol(
            c.table, fc, trace, [&](auto &&access) {
                MmapTraceStream stream(reader);
                while (const auto r = stream.next())
                    access(r->proc, r->addr, r->write);
            });
        EXPECT_EQ(perRecord, c.digest)
            << c.table << " (mmap per-record): digest 0x" << std::hex
            << perRecord << " != golden 0x" << c.digest;

        // Batched span replay.
        const std::uint64_t batched = digestTableProtocol(
            c.table, fc, trace, [&](auto &&access) {
                TraceBatchStream batches(reader);
                for (AccessBatch b = batches.nextBatch(); !b.empty();
                     b = batches.nextBatch())
                    for (const TraceRecord &rec : b)
                        access(rec.proc, rec.addr, rec.write());
            });
        EXPECT_EQ(batched, c.digest)
            << c.table << " (mmap batched): digest 0x" << std::hex
            << batched << " != golden 0x" << c.digest;
    }
}

// ------------------------------------- scalar/batched runner parity

void
expectSameRunResult(const RunResult &a, const RunResult &b)
{
    std::vector<std::uint64_t> ca, cb;
    AccessCounts::forEachField(
        a.counts,
        [&](const char *, std::uint64_t v) { ca.push_back(v); });
    AccessCounts::forEachField(
        b.counts,
        [&](const char *, std::uint64_t v) { cb.push_back(v); });
    EXPECT_EQ(ca, cb);
    EXPECT_EQ(a.sharedRefs, b.sharedRefs);
    EXPECT_EQ(a.sharedWrites, b.sharedWrites);
    EXPECT_EQ(a.sharedHits, b.sharedHits);
    EXPECT_EQ(a.stateSamples, b.stateSamples);
    EXPECT_EQ(a.stateOccupancy, b.stateOccupancy);
    EXPECT_DOUBLE_EQ(a.perCacheUselessPerRef, b.perCacheUselessPerRef);
}

TEST(TraceReplay, BatchedRunnerMatchesScalarRunner)
{
    TempTrace t("parity");
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.15;
    scfg.w = 0.3;
    scfg.seed = 99;
    {
        SyntheticStream stream(scfg);
        TraceWriter w(t.path(), /*blockRecords=*/512);
        for (int n = 0; n < 20000; ++n)
            w.append(*stream.next());
        w.finish();
    }
    TraceReader reader(t.path());

    for (const char *name : {"two_bit", "full_map", "classical"}) {
        ProtoConfig pc;
        pc.numProcs = 4;
        pc.nonCacheableBase = sharedRegionBase;

        RunOptions opts;
        opts.numRefs = reader.totalRecords();
        opts.sampleEvery = 64;
        opts.sharedBlocks = 16;
        opts.invariantEvery = 1000;

        auto protoA = makeProtocol(name, pc);
        MmapTraceStream stream(reader);
        const RunResult a = runFunctional(*protoA, stream, opts);

        auto protoB = makeProtocol(name, pc);
        TraceBatchStream batches(reader);
        const RunResult b =
            runFunctionalBatched(*protoB, batches, opts);

        expectSameRunResult(a, b);
    }
}

TEST(TraceReplay, BatchedRunnerHonoursNumRefsCap)
{
    TempTrace t("cap");
    SyntheticConfig scfg;
    scfg.numProcs = 2;
    {
        SyntheticStream stream(scfg);
        TraceWriter w(t.path(), /*blockRecords=*/64);
        for (int n = 0; n < 1000; ++n)
            w.append(*stream.next());
        w.finish();
    }
    TraceReader reader(t.path());
    ProtoConfig pc;
    pc.numProcs = 2;
    pc.nonCacheableBase = sharedRegionBase;
    auto proto = makeProtocol("two_bit", pc);
    TraceBatchStream batches(reader);
    RunOptions opts;
    opts.numRefs = 333; // mid-block: the cap must clamp a span
    const RunResult r = runFunctionalBatched(*proto, batches, opts);
    EXPECT_EQ(r.counts.refs(), 333u);
}

} // namespace
} // namespace dir2b
