/**
 * @file
 * Unit tests for the time-series telemetry layer (obs/telemetry.hh):
 * registry semantics, sampler boundary conditions, the dir2b.series
 * artifact + validator, and the tentpole guarantees — sampling never
 * perturbs simulation statistics (both tiers), and the bytes of a
 * timed series artifact are pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "obs/trace_recorder.hh"
#include "proto/protocol_factory.hh"
#include "report/report.hh"
#include "stats_digest.hh"
#include "system/func_system.hh"
#include "system/func_telemetry.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"

#ifndef DIR2B_FIXTURES
#define DIR2B_FIXTURES "tests/fixtures"
#endif

namespace dir2b
{
namespace
{

// ---------------------------------------------------------------------
// MetricRegistry.
// ---------------------------------------------------------------------

TEST(MetricRegistry, WordAndProbeSourcesReadLive)
{
    MetricRegistry reg;
    std::uint64_t word = 7;
    std::uint64_t probed[2] = {40, 90};
    const MetricRegistry::Probe plusTwo = +[](const void *ctx,
                                              std::size_t arg) {
        return static_cast<const std::uint64_t *>(ctx)[arg] + 2;
    };

    const auto b = reg.add("b.word", MetricKind::Gauge, &word);
    const auto c = reg.add("c.probe", MetricKind::Counter, plusTwo,
                           probed);
    const auto d = reg.add("d.probe", MetricKind::Counter, plusTwo,
                           probed, 1);

    ASSERT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.read(b), 7u);
    EXPECT_EQ(reg.read(c), 42u);
    EXPECT_EQ(reg.read(d), 92u);

    // Reads are live views, not snapshots.
    word = 8;
    probed[0] = 50;
    probed[1] = 100;
    EXPECT_EQ(reg.read(b), 8u);
    EXPECT_EQ(reg.read(c), 52u);
    EXPECT_EQ(reg.read(d), 102u);

    EXPECT_EQ(reg.kind(b), MetricKind::Gauge);
    EXPECT_EQ(reg.kind(c), MetricKind::Counter);
    EXPECT_STREQ(reg.name(c), "c.probe");
    EXPECT_EQ(reg.find("b.word"), b);
    EXPECT_EQ(reg.find("nope"), MetricRegistry::npos);
}

TEST(MetricRegistry, StatFieldsRegisterInListOrderWithTheirKinds)
{
    DirStoreCounters dc;
    dc.hotPages = 3;
    dc.compressions = 5;
    MetricRegistry reg;
    addStatFields(reg, "dirstore", dirStoreFields,
                  +[](const void *ctx, std::size_t f) {
                      return static_cast<const DirStoreCounters *>(ctx)
                          ->*dirStoreFields[f].member;
                  },
                  &dc);

    ASSERT_EQ(reg.size(), std::size(dirStoreFields));
    for (std::size_t i = 0; i < reg.size(); ++i) {
        EXPECT_EQ(reg.name(i), statName("dirstore", dirStoreFields[i].name));
        EXPECT_EQ(reg.kind(i), dirStoreFields[i].kind);
    }
    EXPECT_STREQ(reg.name(0), "dirstore.ram_budget_bytes");
    const std::size_t hot = reg.find("dirstore.hot_pages");
    const std::size_t comp = reg.find("dirstore.compressions");
    EXPECT_EQ(reg.kind(hot), MetricKind::Gauge);
    EXPECT_EQ(reg.kind(comp), MetricKind::Counter);
    EXPECT_EQ(reg.read(hot), 3u);
    dc.compressions = 6;
    EXPECT_EQ(reg.read(comp), 6u);
}

// ---------------------------------------------------------------------
// Sampler boundary conditions.
// ---------------------------------------------------------------------

TEST(TelemetrySampler, IntervalLargerThanRunYieldsOneFinalSample)
{
    TelemetrySampler s(SeriesDomain::Refs, 1000);
    std::uint64_t v = 0;
    s.registry().add("v", MetricKind::Counter, &v);

    for (std::uint64_t t = 1; t <= 37; ++t) {
        v = t;
        s.flushUpTo(t);
    }
    EXPECT_EQ(s.samples(), 0u); // no boundary reached yet
    s.finish(37);
    ASSERT_EQ(s.samples(), 1u);
    EXPECT_EQ(s.sampleT(0), 37u);
    EXPECT_EQ(s.sampleValue(0, 0), 37u);
}

TEST(TelemetrySampler, IntervalOfOneSamplesEveryCoordinate)
{
    TelemetrySampler s(SeriesDomain::Refs, 1);
    std::uint64_t v = 0;
    s.registry().add("v", MetricKind::Counter, &v);

    for (std::uint64_t t = 1; t <= 5; ++t) {
        v = t * 10;
        s.flushUpTo(t);
    }
    s.finish(5);
    ASSERT_EQ(s.samples(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(s.sampleT(i), i + 1);
        EXPECT_EQ(s.sampleValue(i, 0), (i + 1) * 10);
    }
}

TEST(TelemetrySampler, FinalPartialIntervalFlushesExactlyOnce)
{
    TelemetrySampler s(SeriesDomain::Refs, 10);
    std::uint64_t v = 0;
    s.registry().add("v", MetricKind::Counter, &v);

    v = 10;
    s.flushUpTo(10);
    v = 17;
    s.finish(17);
    ASSERT_EQ(s.samples(), 2u);
    EXPECT_EQ(s.sampleT(0), 10u);
    EXPECT_EQ(s.sampleT(1), 17u);
    EXPECT_EQ(s.sampleValue(1, 0), 17u);

    // finish() is idempotent and later flushes are no-ops.
    s.finish(17);
    s.flushUpTo(100);
    EXPECT_EQ(s.samples(), 2u);
}

TEST(TelemetrySampler, RunEndingExactlyOnBoundaryEmitsNoExtraSample)
{
    TelemetrySampler s(SeriesDomain::Refs, 10);
    std::uint64_t v = 0;
    s.registry().add("v", MetricKind::Counter, &v);

    v = 20;
    s.flushUpTo(20);
    EXPECT_EQ(s.samples(), 2u);
    s.finish(20);
    EXPECT_EQ(s.samples(), 2u) << "boundary landed exactly on finalT";
}

TEST(TelemetrySampler, NextBoundaryClampsAndAdvances)
{
    TelemetrySampler s(SeriesDomain::Ticks, 100);
    EXPECT_EQ(s.nextBoundary(), 100u);
    s.flushUpTo(250);
    EXPECT_EQ(s.nextBoundary(), 300u);
    EXPECT_EQ(s.samples(), 2u);
}

TEST(TelemetrySampler, RecorderSinkGetsCounterEvents)
{
    TraceRecorder rec(64);
    TelemetrySampler s(SeriesDomain::Ticks, 10);
    std::uint64_t v = 0;
    s.registry().add("v", MetricKind::Counter, &v);
    s.attachRecorder(&rec);

    v = 3;
    s.flushUpTo(10);
    v = 9;
    s.finish(25);

    ASSERT_EQ(rec.tracks().size(), 1u);
    EXPECT_EQ(rec.tracks()[0], "metrics");
    // 3 samples (10, 20, 25) x 1 metric.
    ASSERT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.at(0).type, TraceRecorder::Ev::Counter);
    EXPECT_EQ(rec.at(0).start, 10u);
    EXPECT_EQ(rec.at(0).arg0, 3u);
    EXPECT_EQ(rec.at(2).start, 25u);
    EXPECT_EQ(rec.at(2).arg0, 9u);
}

// ---------------------------------------------------------------------
// Artifact + validator.
// ---------------------------------------------------------------------

TelemetrySampler
tinySeries()
{
    TelemetrySampler s(SeriesDomain::Refs, 4);
    static std::uint64_t v;
    v = 0;
    s.registry().add("refs.completed", MetricKind::Counter, &v);
    for (std::uint64_t t = 1; t <= 10; ++t) {
        v = t;
        s.flushUpTo(t);
    }
    s.finish(10);
    return s;
}

TEST(SeriesArtifact, RoundTripsThroughValidator)
{
    const TelemetrySampler s = tinySeries();
    Json params = Json::object();
    params.set("refs", 10);
    const Json a = makeSeriesArtifact("test", std::move(params), s);

    EXPECT_EQ(validateSeriesArtifact(a), "");
    EXPECT_EQ(a.at("schema").asString(), seriesSchemaName);
    EXPECT_FALSE(a.contains("meta")) << "series artifacts carry no "
                                        "host-dependent meta block";
    EXPECT_EQ(a.at("series").at("samples").size(), 3u); // 4, 8, 10
    EXPECT_EQ(a.at("summary").at("finalT").asUint(), 10u);

    const Json reparsed = Json::parse(a.dump());
    EXPECT_EQ(validateSeriesArtifact(reparsed), "");
}

TEST(SeriesArtifact, ValidatorRejectsBrokenDocuments)
{
    const TelemetrySampler s = tinySeries();
    const Json good = makeSeriesArtifact("test", Json(), s);
    ASSERT_EQ(validateSeriesArtifact(good), "");

    Json badSchema = good;
    badSchema.set("schema", "dir2b.sweep");
    EXPECT_NE(validateSeriesArtifact(badSchema), "");

    Json badVersion = good;
    badVersion.set("schema_version", seriesSchemaVersion + 1);
    EXPECT_NE(validateSeriesArtifact(badVersion), "");

    Json withMeta = good;
    Json meta = Json::object();
    meta.set("threads", 1);
    withMeta.set("meta", std::move(meta));
    EXPECT_NE(validateSeriesArtifact(withMeta), "")
        << "a meta block would break byte-compare determinism checks";
}

TEST(SeriesArtifact, ProvenanceObjectMatchesSampler)
{
    const TelemetrySampler s = tinySeries();
    const Json p = seriesProvenanceJson(s);
    EXPECT_EQ(p.at("domain").asString(), "refs");
    EXPECT_EQ(p.at("interval").asUint(), 4u);
    EXPECT_EQ(p.at("metrics").asUint(), 1u);
    EXPECT_EQ(p.at("samples").asUint(), 3u);
}

TEST(Fixtures, SeriesFixturesValidateAsExpected)
{
    const std::string dir = DIR2B_FIXTURES;
    const Json good = readArtifact(dir + "/series_minimal_good.json");
    EXPECT_EQ(validateSeriesArtifact(good), "");

    const Json bad =
        readArtifact(dir + "/series_bad_nonmonotonic.json");
    const std::string err = validateSeriesArtifact(bad);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("decreased"), std::string::npos) << err;
}

TEST(Fixtures, SweepSeriesProvenanceGatesOnSchemaV5)
{
    const std::string dir = DIR2B_FIXTURES;
    const Json v5 = readArtifact(dir + "/sweep_v5_series_good.json");
    EXPECT_EQ(validateSweepArtifact(v5), "");

    const Json v4 = readArtifact(dir + "/sweep_v4_series_too_old.json");
    const std::string err = validateSweepArtifact(v4);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("schema_version >= 5"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------------
// Do-no-harm + pinned series bytes on the timed tier.
// ---------------------------------------------------------------------

TimedConfig
timedConfig(TimedProto proto, TelemetrySampler *sampler,
            ProcId procs = 4)
{
    TimedConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = procs;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.sampler = sampler;
    return cfg;
}

SyntheticConfig
timedWorkload(ProcId procs = 4)
{
    SyntheticConfig scfg;
    scfg.numProcs = procs;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    return scfg;
}

/** Run the fixed workload, optionally sampled; the pinned
 *  statistics digest. */
std::uint64_t
timedDigest(TimedProto proto, TelemetrySampler *sampler,
            ProcId procs = 4, std::uint64_t refsPerProc = 400)
{
    const TimedConfig cfg = timedConfig(proto, sampler, procs);
    SyntheticStream stream(timedWorkload(procs));
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        refsPerProc);
    return digestStats(r, sys);
}

TEST(DoNoHarm, TimedSamplingOnAndOffProduceIdenticalDigests)
{
    for (TimedProto proto : {TimedProto::TwoBit, TimedProto::FullMap,
                             TimedProto::YenFu}) {
        const auto off = timedDigest(proto, nullptr);
        TelemetrySampler s(SeriesDomain::Ticks, 512);
        const auto on = timedDigest(proto, &s);
        EXPECT_EQ(on, off) << "sampler perturbed the simulation";
        EXPECT_GT(s.samples(), 0u);
    }
}

/** FNV-1a digest of a serialized series artifact, with the columns
 *  named in `dropped` removed first (their metric entries and their
 *  sample values).  Stripping the columns a series gained later keeps
 *  the digest of every older column pinned. */
std::uint64_t
seriesDigest(const Json &artifact, const std::vector<std::string> &dropped)
{
    const Json &series = artifact.at("series");
    std::vector<bool> keep;
    Json metrics = Json::array();
    for (const Json &m : series.at("metrics").elements()) {
        keep.push_back(std::find(dropped.begin(), dropped.end(),
                                 m.at("name").asString()) ==
                       dropped.end());
        if (keep.back())
            metrics.push(m);
    }
    Json samples = Json::array();
    for (const Json &row : series.at("samples").elements()) {
        Json kept = Json::array();
        kept.push(row.at(0));
        for (std::size_t i = 0; i < keep.size(); ++i)
            if (keep[i])
                kept.push(row.at(i + 1));
        samples.push(std::move(kept));
    }
    Json stripped = artifact;
    Json strippedSeries = series;
    strippedSeries.set("metrics", std::move(metrics));
    strippedSeries.set("samples", std::move(samples));
    stripped.set("series", std::move(strippedSeries));

    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char ch : stripped.dump()) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// The bytes of the dir2b.series artifact are part of the determinism
// contract: metric names, order, sampling boundaries and every sampled
// value.  These FNV-1a digests of the serialized artifact pin them.
// At 64 processors a BROADINV's 63 acknowledgements stream into one
// home port for many cycles, so 64-tick boundaries fall inside them.
// `digest` covers the columns the timed series had before every
// statistic was registered from its field list (the columns that
// change added are stripped first); `full` covers the whole artifact.
TEST(Identity, TimedSeriesBytesMatchPinnedDigests)
{
    const std::vector<std::string> added = {
        "cache.stale_grants_ignored", "dir.ejects_data",
        "dir.ejects_ignored",         "dir.ejects_applied",
        "dir.puts_consumed",          "dir.puts_awaited",
        "dirstore.ram_budget_bytes",  "dirstore.disk_page_writes",
        "dirstore.disk_page_reads"};
    const struct
    {
        ProcId procs;
        std::uint64_t refs;
        std::uint64_t interval;
        std::uint64_t digest;
        std::uint64_t full;
    } pinned[] = {
        {4, 400, 64, 0x9b5f663156b3d916ULL, 0x55b5a3372d9fefe0ULL},
        {4, 400, 512, 0xcc8dc4b1c963cabcULL, 0x4e63d4316a233980ULL},
        {4, 400, 1000000, 0xe761fec27331e6bcULL, 0xfe07763bfdf7905cULL},
        {64, 400, 64, 0x4941e15eb6898ec3ULL, 0x6151f1ca22d5535bULL},
    };
    for (const auto &c : pinned) {
        TelemetrySampler s(SeriesDomain::Ticks, c.interval);
        timedDigest(TimedProto::TwoBit, &s, c.procs, c.refs);

        Json params = Json::object();
        params.set("refs", c.refs);
        const Json a = makeSeriesArtifact("test", params, s);
        EXPECT_EQ(validateSeriesArtifact(a), "");
        const std::uint64_t h = seriesDigest(a, added);
        EXPECT_EQ(h, c.digest)
            << c.procs << " procs, interval " << c.interval
            << ": series digest 0x"
            << std::hex << h << " != pinned 0x" << c.digest;
        const std::uint64_t full = seriesDigest(a, {});
        EXPECT_EQ(full, c.full)
            << c.procs << " procs, interval " << c.interval
            << ": full series digest 0x" << std::hex << full
            << " != pinned 0x" << c.full;
    }
}

// The last sample equals the run's totals for every counter the
// result also carries, and every field-list counter equals its sum
// over the components.  The 2 KiB directory budget makes the
// dirstore columns move.
TEST(Identity, TimedSeriesFinalSampleMatchesRunTotals)
{
    TelemetrySampler s(SeriesDomain::Ticks, 512);
    TimedConfig cfg = timedConfig(TimedProto::TwoBit, &s);
    cfg.dirRamBudget = 2048;
    SyntheticStream stream(timedWorkload());
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        400);

    ASSERT_GT(s.samples(), 1u);
    const std::size_t last = s.samples() - 1;
    EXPECT_EQ(s.sampleT(last), r.finalTick);
    const auto &reg = s.registry();
    auto final = [&](const char *name) {
        const std::size_t i = reg.find(name);
        EXPECT_NE(i, MetricRegistry::npos) << name;
        return i == MetricRegistry::npos ? ~0ULL
                                         : s.sampleValue(last, i);
    };
    EXPECT_EQ(final("refs.completed"), r.refsCompleted);
    EXPECT_EQ(final("kernel.executed"), r.eventsExecuted);
    EXPECT_EQ(final("net.messages"), r.netMessages);
    EXPECT_EQ(final("net.broadcasts"), r.broadcasts);
    EXPECT_EQ(final("net.port_wait_cycles"), r.netWaitCycles);
    EXPECT_EQ(final("cache.stolen_cycles"), r.stolenCycles);
    EXPECT_EQ(final("cache.filtered_cmds"), r.filteredCmds);
    EXPECT_EQ(final("cache.mrequest_conversions"),
              r.mrequestConversions);
    EXPECT_EQ(final("dir.mreq_deleted"), r.mreqDeleted);
    EXPECT_EQ(final("dir.puts_consumed"), r.putsConsumed);
    EXPECT_EQ(final("dir.puts_awaited"), r.putsAwaited);
    EXPECT_EQ(final("dir.grants_false"), r.grantsFalse);
    for (const auto &f : dirStoreFields)
        EXPECT_EQ(final(statName("dirstore", f.name).c_str()),
                  r.dirStore.*f.member)
            << f.name;
    EXPECT_GT(r.dirStore.compressions, 0u);

    auto sums = [&](const char *group, const auto &fields, auto stats,
                    std::size_t n) {
        for (const auto &f : fields) {
            std::uint64_t sum = 0;
            for (std::size_t k = 0; k < n; ++k)
                sum += (stats(k).*f.member).value();
            EXPECT_EQ(final(statName(group, f.name).c_str()), sum)
                << f.name;
        }
    };
    sums("cache", cacheCtrlCounters,
         [&](std::size_t p) -> const CacheCtrlStats & {
             return sys.cacheCtrl(static_cast<ProcId>(p)).stats();
         },
         cfg.numProcs);
    sums("dir", dirCtrlCounters,
         [&](std::size_t m) -> const DirCtrlStats & {
             return sys.dirCtrl(static_cast<ModuleId>(m)).stats();
         },
         cfg.numModules);
    sums("net", netStatFields,
         [&](std::size_t) -> const NetStats & {
             return sys.network().stats();
         },
         1);

    // Counters are monotone across samples (validator property, but
    // asserted here against the live engine too).
    const std::size_t msgs = reg.find("net.messages");
    for (std::size_t i = 1; i < s.samples(); ++i)
        EXPECT_LE(s.sampleValue(i - 1, msgs), s.sampleValue(i, msgs));
}

// ---------------------------------------------------------------------
// Do-no-harm on the functional tier.
// ---------------------------------------------------------------------

/** A finished functional run and the protocol that ran it. */
struct FunctionalRun
{
    std::unique_ptr<Protocol> proto;
    RunResult result;
};

/** 4000 references of the fixed workload on `scheme`, optionally
 *  sampled, under a directory RAM budget of `dirRamBudget` bytes. */
FunctionalRun
runFunctionalSampled(TelemetrySampler *sampler,
                     const char *scheme = "two_bit",
                     std::uint64_t dirRamBudget = 0)
{
    ProtoConfig cfg;
    cfg.numProcs = 4;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.numModules = 2;
    cfg.nonCacheableBase = sharedRegionBase;
    cfg.dirRamBudget = dirRamBudget;
    FunctionalRun run{makeProtocol(scheme, cfg), {}};

    if (sampler)
        registerFunctionalMetrics(sampler->registry(), *run.proto);

    SyntheticConfig scfg = timedWorkload();
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = 4000;
    opts.sampler = sampler;
    run.result = runFunctional(*run.proto, stream, opts);
    return run;
}

std::uint64_t
functionalDigest(TelemetrySampler *sampler)
{
    const RunResult r = runFunctionalSampled(sampler).result;

    std::uint64_t h = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        r.counts,
        [&h](const char *, std::uint64_t v) { h = fold(h, v); });
    h = fold(h, r.sharedRefs);
    h = fold(h, r.sharedWrites);
    h = fold(h, r.sharedHits);
    return h;
}

TEST(DoNoHarm, FunctionalSamplingOnAndOffProduceIdenticalDigests)
{
    const auto off = functionalDigest(nullptr);
    TelemetrySampler s(SeriesDomain::Refs, 500);
    const auto on = functionalDigest(&s);
    EXPECT_EQ(on, off) << "sampler perturbed the functional run";

    // 4000 refs / 500 = 8 boundaries, the last exactly at finalT.
    ASSERT_EQ(s.samples(), 8u);
    EXPECT_EQ(s.sampleT(7), 4000u);
    const auto &reg = s.registry();
    EXPECT_EQ(s.sampleValue(7, reg.find("refs.completed")), 4000u);
    const std::size_t reads = reg.find("counts.reads");
    const std::size_t writes = reg.find("counts.writes");
    ASSERT_NE(reads, MetricRegistry::npos);
    EXPECT_EQ(s.sampleValue(7, reads) + s.sampleValue(7, writes),
              4000u);
}

// The functional twin: the last sample equals RunResult.counts for
// every field and the protocol's dirStoreCounters() under a 2 KiB
// budget.
TEST(Identity, FunctionalSeriesFinalSampleMatchesRunTotals)
{
    for (const char *scheme : {"two_bit", "two_bit_table"}) {
        TelemetrySampler s(SeriesDomain::Refs, 500);
        const FunctionalRun run = runFunctionalSampled(&s, scheme, 2048);
        const DirStoreCounters dc = run.proto->dirStoreCounters();
        EXPECT_GT(dc.compressions, 0u) << scheme;

        const auto &reg = s.registry();
        const std::size_t last = s.samples() - 1;
        ASSERT_EQ(reg.size(), 1 + std::size(accessCountFields) +
                                  std::size(dirStoreFields));
        EXPECT_EQ(s.sampleValue(last, reg.find("refs.completed")),
                  run.result.counts.refs());
        for (const auto &f : accessCountFields) {
            const std::size_t i =
                reg.find(statName("counts", f.name).c_str());
            ASSERT_NE(i, MetricRegistry::npos) << f.name;
            EXPECT_EQ(s.sampleValue(last, i), run.result.counts.*f.member)
                << scheme << " " << f.name;
        }
        for (const auto &f : dirStoreFields) {
            const std::size_t i =
                reg.find(statName("dirstore", f.name).c_str());
            ASSERT_NE(i, MetricRegistry::npos) << f.name;
            EXPECT_EQ(s.sampleValue(last, i), dc.*f.member)
                << scheme << " " << f.name;
        }
    }
}

// The functional twin of the timed pin: the series of the two-bit
// scheme and of its table, unbudgeted and under a 2 KiB directory
// budget (the dirstore columns move).  `digest` covers the columns
// the functional series had before every statistic was registered
// from its field list (the columns that change added are stripped);
// `full` covers the whole artifact.
TEST(Identity, FunctionalSeriesBytesMatchPinnedDigests)
{
    const std::vector<std::string> added = {
        "counts.word_writes",        "counts.snoop_checks",
        "counts.dir_updates",        "counts.dir_searches",
        "counts.tb_hits",            "counts.tb_misses",
        "dirstore.ram_budget_bytes", "dirstore.disk_page_writes",
        "dirstore.disk_page_reads"};
    const struct
    {
        const char *scheme;
        std::uint64_t interval;
        std::uint64_t dirRamBudget;
        std::uint64_t digest;
        std::uint64_t full;
    } pinned[] = {
        {"two_bit", 64, 0, 0x925f7489b5a81705ULL, 0x8a493cf3a1e36b9aULL},
        {"two_bit", 500, 2048, 0xb41b100e1fe756d7ULL, 0x97b5b6956d68308cULL},
        {"two_bit_table", 64, 0, 0x29aca1fc67de01d8ULL, 0x631b18ee22a0c90bULL},
        {"two_bit_table", 500, 2048, 0x2b216fa183e018d2ULL,
         0x562268af3b6910beULL},
    };
    for (const auto &c : pinned) {
        TelemetrySampler s(SeriesDomain::Refs, c.interval);
        runFunctionalSampled(&s, c.scheme, c.dirRamBudget);

        Json params = Json::object();
        params.set("scheme", c.scheme);
        const Json a = makeSeriesArtifact("test", params, s);
        EXPECT_EQ(validateSeriesArtifact(a), "");
        const std::uint64_t h = seriesDigest(a, added);
        EXPECT_EQ(h, c.digest)
            << c.scheme << ", interval " << c.interval << ", budget "
            << c.dirRamBudget << ": series digest 0x" << std::hex << h
            << " != pinned 0x" << c.digest;
        const std::uint64_t full = seriesDigest(a, {});
        EXPECT_EQ(full, c.full)
            << c.scheme << ", interval " << c.interval << ", budget "
            << c.dirRamBudget << ": full series digest 0x" << std::hex
            << full << " != pinned 0x" << c.full;
    }
}

} // namespace
} // namespace dir2b
