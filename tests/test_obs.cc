/**
 * @file
 * Unit tests for the observability subsystem (src/obs): the ring
 * recorder, the Chrome trace exporter + dir2b.trace validator, the
 * LogLevel::Debug routing, and the tentpole guarantee — attaching a
 * recorder never changes simulation results (golden digests are
 * bit-identical with tracing on or off).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/chrome_trace.hh"
#include "obs/trace_recorder.hh"
#include "report/report.hh"
#include "stats_digest.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"

#ifndef DIR2B_FIXTURES
#define DIR2B_FIXTURES "tests/fixtures"
#endif

namespace dir2b
{
namespace
{

// ---------------------------------------------------------------------
// Recorder core.
// ---------------------------------------------------------------------

TEST(TraceRecorder, RecordsInstantsAndCounters)
{
    TraceRecorder rec(16);
    const auto trk = rec.addTrack("t0");
    rec.instant(5, trk, "hello", 42, 1, 2);
    rec.counter(6, trk, "depth", 3);
    ASSERT_EQ(rec.size(), 2u);
    const auto &a = rec.at(0);
    EXPECT_EQ(a.start, 5u);
    EXPECT_STREQ(a.name, "hello");
    EXPECT_EQ(a.addr, 42u);
    EXPECT_EQ(a.arg0, 1u);
    EXPECT_EQ(a.arg1, 2u);
    EXPECT_EQ(a.type, TraceRecorder::Ev::Instant);
    const auto &b = rec.at(1);
    EXPECT_EQ(b.type, TraceRecorder::Ev::Counter);
    EXPECT_EQ(b.arg0, 3u);
}

TEST(TraceRecorder, RingWrapKeepsMostRecent)
{
    TraceRecorder rec(4);
    const auto trk = rec.addTrack("t0");
    for (Tick t = 0; t < 10; ++t)
        rec.instant(t, trk, "e");
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.capacity(), 4u);
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    // Oldest survivor is tick 6; newest is tick 9.
    EXPECT_EQ(rec.at(0).start, 6u);
    EXPECT_EQ(rec.at(3).start, 9u);
}

TEST(TraceRecorder, SpansNestPerTrack)
{
    TraceRecorder rec(16);
    const auto trk = rec.addTrack("t0");
    rec.begin(10, trk, "outer", 7);
    rec.begin(12, trk, "inner");
    EXPECT_EQ(rec.openSpans(), 2u);
    EXPECT_TRUE(rec.end(14, trk, "inner"));
    EXPECT_TRUE(rec.end(20, trk, "outer"));
    EXPECT_EQ(rec.openSpans(), 0u);

    // Inner closes first, so it is emitted first.
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_STREQ(rec.at(0).name, "inner");
    EXPECT_EQ(rec.at(0).start, 12u);
    EXPECT_EQ(rec.at(0).end, 14u);
    EXPECT_STREQ(rec.at(1).name, "outer");
    EXPECT_EQ(rec.at(1).start, 10u);
    EXPECT_EQ(rec.at(1).end, 20u);
    EXPECT_EQ(rec.at(1).addr, 7u);
    EXPECT_EQ(rec.mismatchedEnds(), 0u);
}

TEST(TraceRecorder, MismatchedEndIsFlaggedNotEmitted)
{
    TraceRecorder rec(16);
    const auto trk = rec.addTrack("t0");

    // end() with nothing open.
    EXPECT_FALSE(rec.end(5, trk, "ghost"));
    EXPECT_EQ(rec.mismatchedEnds(), 1u);
    EXPECT_EQ(rec.size(), 0u);

    // end() with the wrong name leaves the span open.
    rec.begin(10, trk, "real");
    EXPECT_FALSE(rec.end(11, trk, "wrong"));
    EXPECT_EQ(rec.mismatchedEnds(), 2u);
    EXPECT_EQ(rec.openSpans(), 1u);
    EXPECT_TRUE(rec.end(12, trk, "real"));
    EXPECT_EQ(rec.size(), 1u);
}

TEST(TraceRecorder, DepthOverflowIsCountedNotFatal)
{
    TraceRecorder rec(256);
    const auto trk = rec.addTrack("t0");
    for (std::size_t i = 0; i < TraceRecorder::maxDepth + 3; ++i)
        rec.begin(i, trk, "deep");
    EXPECT_EQ(rec.overflowedSpans(), 3u);
    EXPECT_EQ(rec.openSpans(), TraceRecorder::maxDepth);
}

TEST(TraceRecorder, TracksAreIndependent)
{
    TraceRecorder rec(16);
    const auto a = rec.addTrack("a");
    const auto b = rec.addTrack("b");
    rec.begin(1, a, "x");
    rec.begin(2, b, "y");
    EXPECT_TRUE(rec.end(3, b, "y"));
    EXPECT_TRUE(rec.end(4, a, "x"));
    EXPECT_EQ(rec.mismatchedEnds(), 0u);
    ASSERT_EQ(rec.tracks().size(), 2u);
    EXPECT_EQ(rec.tracks()[0], "a");
    EXPECT_EQ(rec.tracks()[1], "b");
}

// ---------------------------------------------------------------------
// Exporter + validator.
// ---------------------------------------------------------------------

Json
exportToJson(const TraceRecorder &rec)
{
    std::ostringstream os;
    writeTraceArtifact(os, rec, "test_obs", Json::object(),
                       Json::object(), Json::object());
    return Json::parse(os.str());
}

TEST(ChromeTrace, ExportValidatesAndRoundTrips)
{
    TraceRecorder rec(64);
    const auto trk = rec.addTrack("cache0");
    rec.instant(1, trk, "REQUEST", 9, 2, 3);
    rec.complete(2, 8, trk, "await_data", 9);
    rec.counter(3, trk, "queue_depth", 5);

    const Json doc = exportToJson(rec);
    EXPECT_EQ(validateTraceArtifact(doc), "");
    EXPECT_EQ(doc.at("schema").asString(), traceSchemaName);

    // 1 process_name + 2 per-track metadata + 3 events.
    const auto &ev = doc.at("traceEvents").elements();
    ASSERT_EQ(ev.size(), 6u);
    const Json &span = ev[4];
    EXPECT_EQ(span.at("ph").asString(), "X");
    EXPECT_EQ(span.at("ts").asInt(), 2);
    EXPECT_EQ(span.at("dur").asInt(), 6);
    EXPECT_EQ(span.at("args").at("addr").asInt(), 9);
}

TEST(ChromeTrace, EventFreeExportValidates)
{
    // A tracing-off build's trace_dump emits an artifact with no
    // tracks and no data events; it must still validate.
    TraceRecorder rec(4);
    const Json doc = exportToJson(rec);
    EXPECT_EQ(validateTraceArtifact(doc), "");
}

TEST(ChromeTrace, NoteNamesAreJsonEscaped)
{
    TraceRecorder rec(16);
    const auto trk = rec.addTrack("log");
    const std::string nasty = "a \"quoted\"\nback\\slash\ttab";
    rec.note(7, trk, nasty);

    const Json doc = exportToJson(rec);
    ASSERT_EQ(validateTraceArtifact(doc), "");
    const auto &ev = doc.at("traceEvents").elements();
    // Last event is the note; its name survives the round trip.
    EXPECT_EQ(ev.back().at("name").asString(), nasty);
}

TEST(ChromeTrace, ValidatorRejectsBrokenDocuments)
{
    TraceRecorder rec(16);
    rec.addTrack("t0");
    rec.instant(1, 0, "e");
    Json doc = exportToJson(rec);
    ASSERT_EQ(validateTraceArtifact(doc), "");

    Json noSchema = doc;
    noSchema.set("schema", "dir2b.not_a_trace");
    EXPECT_NE(validateTraceArtifact(noSchema), "");

    Json badVersion = doc;
    badVersion.set("schema_version", traceSchemaVersion + 1);
    EXPECT_NE(validateTraceArtifact(badVersion), "");

    Json badEvents = doc;
    badEvents.set("traceEvents", Json("not an array"));
    EXPECT_NE(validateTraceArtifact(badEvents), "");
}

TEST(Fixtures, TraceFixturesValidateAsExpected)
{
    const std::string dir = DIR2B_FIXTURES;
    const Json good = readArtifact(dir + "/trace_minimal_good.json");
    EXPECT_EQ(validateTraceArtifact(good), "");

    const Json bad =
        readArtifact(dir + "/trace_bad_unnamed_tracks.json");
    EXPECT_NE(validateTraceArtifact(bad), "");
}

TEST(Fixtures, SweepFixturesValidateAsExpected)
{
    const std::string dir = DIR2B_FIXTURES;
    // v1 artifacts never carried percentiles; still accepted.
    const Json v1 = readArtifact(dir + "/sweep_v1_minimal.json");
    EXPECT_EQ(validateSweepArtifact(v1), "");

    // A v2 artifact whose latency object lacks them is rejected.
    const Json v2 =
        readArtifact(dir + "/sweep_v2_missing_percentiles.json");
    const std::string err = validateSweepArtifact(v2);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("p50"), std::string::npos) << err;

    // v3: a complete dirStore object (tiered directory counters)
    // passes; one missing tier-movement counters is rejected.
    const Json v3 =
        readArtifact(dir + "/sweep_v3_dirstore_good.json");
    EXPECT_EQ(validateSweepArtifact(v3), "");

    const Json v3bad =
        readArtifact(dir + "/sweep_v3_bad_dirstore.json");
    const std::string err3 = validateSweepArtifact(v3bad);
    EXPECT_NE(err3, "");
    EXPECT_NE(err3.find("dirStore"), std::string::npos) << err3;
}

// ---------------------------------------------------------------------
// Debug routing.
// ---------------------------------------------------------------------

TEST(DebugRouting, SinkReceivesMessagesRegardlessOfLogLevel)
{
    TraceRecorder rec(16);
    const auto trk = rec.addTrack("log");
    ASSERT_EQ(logLevel(), LogLevel::Warn); // default: Debug filtered

    DIR2B_DEBUG("invisible ", 1);
    EXPECT_EQ(rec.size(), 0u);

    setDebugSink([&rec, trk](const std::string &msg) {
        rec.note(3, trk, msg);
    });
    DIR2B_DEBUG("routed ", 42);
    setDebugSink(nullptr);
    DIR2B_DEBUG("after detach");

    ASSERT_EQ(rec.size(), 1u);
    EXPECT_STREQ(rec.at(0).name, "routed 42");
    EXPECT_EQ(rec.at(0).start, 3u);
}

// ---------------------------------------------------------------------
// Instrumented timed runs: content and the do-no-harm guarantee.
// ---------------------------------------------------------------------

/** Same fixed workload as the golden-digest test, with an optional
 *  recorder attached; the same statistics digest. */
std::uint64_t
digestRun(TimedProto proto, TraceRecorder *tracer, ProcId procs = 4,
          bool snoop = false)
{
    TimedConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = procs;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.snoopFilter = snoop;
    cfg.tracer = tracer;
    TimedSystem sys(cfg);

    SyntheticConfig scfg;
    scfg.numProcs = procs;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    SyntheticStream stream(scfg);

    const auto r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        400);

    return digestStats(r, sys);
}

TEST(Instrumentation, TracingOnAndOffProduceIdenticalDigests)
{
    for (TimedProto proto : {TimedProto::TwoBit, TimedProto::FullMap,
                             TimedProto::YenFu}) {
        TraceRecorder rec;
        const auto off = digestRun(proto, nullptr);
        const auto on = digestRun(proto, &rec);
        EXPECT_EQ(on, off) << "recorder perturbed the simulation";
        if (traceCompiledIn)
            EXPECT_GT(rec.recorded(), 0u);
        else
            EXPECT_EQ(rec.recorded(), 0u);
    }
}

TEST(Instrumentation, TracedRunExportsPerControllerTracksAndPhases)
{
    if (!traceCompiledIn)
        GTEST_SKIP() << "built with DIR2B_TRACING=OFF";

    TraceRecorder rec;
    digestRun(TimedProto::TwoBit, &rec);

    // One track for the network (constructed first), one per cache,
    // two per controller.
    ASSERT_EQ(rec.tracks().size(), 1u + 4u + 2u * 2u);
    EXPECT_EQ(rec.tracks()[0], "net");
    EXPECT_EQ(rec.tracks()[1], "cache0");
    EXPECT_EQ(rec.tracks()[5], "ctrl0");
    EXPECT_EQ(rec.tracks()[6], "ctrl0.busy");
    EXPECT_EQ(rec.tracks().back(), "ctrl1.busy");
    EXPECT_EQ(rec.openSpans(), 0u);
    EXPECT_EQ(rec.mismatchedEnds(), 0u);
    EXPECT_EQ(rec.overflowedSpans(), 0u);

    // The artifact validates, and the run exercised >= 4 distinct
    // phase span types (the ISSUE acceptance bar).
    const Json doc = exportToJson(rec);
    ASSERT_EQ(validateTraceArtifact(doc), "");
    std::set<std::string> spanNames;
    for (const Json &e : doc.at("traceEvents").elements())
        if (e.at("ph").asString() == "X")
            spanNames.insert(e.at("name").asString());
    EXPECT_GE(spanNames.size(), 4u)
        << "expected transaction + sub-phase span vocabulary";
    EXPECT_TRUE(spanNames.count("await_data"));
    EXPECT_TRUE(spanNames.count("supply"));
}

/** FNV-1a over every recorded event: its track, name, ticks, block,
 *  arguments and type, oldest first. */
std::uint64_t
digestEvents(const TraceRecorder &rec)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const TraceRecorder::Event &e = rec.at(i);
        h = fold(h, e.track);
        for (const char *c = e.name; c && *c; ++c)
            h = fold(h, static_cast<unsigned char>(*c));
        h = fold(h, e.start);
        h = fold(h, e.end);
        h = fold(h, e.addr);
        h = fold(h, e.arg0);
        h = fold(h, e.arg1);
        h = fold(h, static_cast<std::uint64_t>(e.type));
    }
    return h;
}

// The recorder's whole event stream for the directed schemes at 16
// processors with the duplicate directory: every command, span,
// filtered instant and counter keeps its order and arguments.
TEST(Instrumentation, TracedDirectedRunsMatchCheckedInEventDigests)
{
    if (!traceCompiledIn)
        GTEST_SKIP() << "built with DIR2B_TRACING=OFF";

    const struct
    {
        const char *name;
        TimedProto proto;
        std::uint64_t digest;
    } cases[] = {
        {"full_map", TimedProto::FullMap, 0xc85fb18f2a5436bdULL},
        {"yen_fu", TimedProto::YenFu, 0xa7cf5aae0694be63ULL},
    };
    for (const auto &c : cases) {
        TraceRecorder rec(std::size_t(1) << 20);
        digestRun(c.proto, &rec, 16, true);
        ASSERT_EQ(rec.dropped(), 0u);
        const std::uint64_t got = digestEvents(rec);
        EXPECT_EQ(got, c.digest)
            << c.name << ": event digest 0x" << std::hex
            << got << " != golden 0x" << c.digest << " over " << std::dec
            << rec.size() << " events";
    }
}

// Every message on the wire is one instant on the "net" track, also
// the broadcast copies and acknowledgements of caches that hold no
// copy of the block: at 64 processors most of a BROADINV's 63 copies
// and INVACKs are of that kind.
TEST(Instrumentation, NetTrackHasOneInstantPerMessageAt64Procs)
{
    if (!traceCompiledIn)
        GTEST_SKIP() << "built with DIR2B_TRACING=OFF";

    TimedConfig cfg;
    cfg.numProcs = 64;
    cfg.numModules = 4;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    TraceRecorder rec;
    cfg.tracer = &rec;
    TimedSystem sys(cfg);

    SyntheticConfig scfg;
    scfg.numProcs = 64;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    SyntheticStream stream(scfg);
    const auto r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        50);

    ASSERT_EQ(rec.dropped(), 0u);
    ASSERT_EQ(rec.tracks()[0], "net");
    std::uint64_t netInstants = 0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const TraceRecorder::Event &e = rec.at(i);
        netInstants += e.track == 0 &&
                       e.type == TraceRecorder::Ev::Instant;
    }
    EXPECT_GT(r.broadcasts, 0u);
    EXPECT_EQ(netInstants, r.netMessages);
}

} // namespace
} // namespace dir2b
