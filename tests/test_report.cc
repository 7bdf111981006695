/**
 * @file
 * Unit tests for the metrics-export layer: JSON escaping and
 * round-tripping, artifact schema stamping, counts/stat-group
 * serialization, and the payload comparison that ignores volatile
 * metadata.
 */

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "report/bench_cli.hh"
#include "report/report.hh"
#include "temp_path.hh"
#include "timed/timed_system.hh"

namespace dir2b
{
namespace
{

TEST(Json, EscapesControlAndQuoteCharacters)
{
    const std::string nasty =
        "tab\there \"quoted\" back\\slash\nnewline \x01 bell\x07";
    const Json j(nasty);
    const std::string text = j.dump(0);
    EXPECT_EQ(text.find('\n'), std::string::npos);
    EXPECT_NE(text.find("\\t"), std::string::npos);
    EXPECT_NE(text.find("\\\""), std::string::npos);
    EXPECT_NE(text.find("\\\\"), std::string::npos);
    EXPECT_NE(text.find("\\u0001"), std::string::npos);
    EXPECT_NE(text.find("\\u0007"), std::string::npos);
    // Round trip restores the original bytes.
    EXPECT_EQ(Json::parse(text).asString(), nasty);
}

TEST(Json, NumbersRoundTrip)
{
    Json obj = Json::object();
    obj.set("u", 18446744073709551615ULL); // max uint64
    obj.set("i", -42);
    obj.set("d", 0.1);
    obj.set("tiny", 1e-300);
    obj.set("whole", 3.0);
    const Json back = Json::parse(obj.dump(2));
    EXPECT_EQ(back.at("u").asUint(), 18446744073709551615ULL);
    EXPECT_EQ(back.at("i").asInt(), -42);
    EXPECT_EQ(back.at("d").asDouble(), 0.1);
    EXPECT_EQ(back.at("tiny").asDouble(), 1e-300);
    EXPECT_EQ(back.at("whole").asDouble(), 3.0);
    EXPECT_TRUE(obj == back);
}

TEST(Json, StructuresRoundTripAndCompare)
{
    Json arr = Json::array();
    arr.push(1).push("two").push(Json()).push(true);
    Json obj = Json::object();
    obj.set("list", arr);
    obj.set("nested", Json::object().set("k", "v"));
    const Json back = Json::parse(obj.dump(2));
    EXPECT_TRUE(obj == back);
    EXPECT_EQ(back.at("list").size(), 4u);
    EXPECT_TRUE(back.at("list").at(2).isNull());
    EXPECT_EQ(back.at("nested").at("k").asString(), "v");
    // Compact form parses identically.
    EXPECT_TRUE(Json::parse(obj.dump(0)) == obj);
}

TEST(Json, ParseErrorsThrow)
{
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]2"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\": nul}"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Json::parse("12 34"), std::runtime_error);
}

TEST(Report, CountsRoundTripThroughJson)
{
    AccessCounts c;
    c.reads = 900;
    c.writes = 100;
    c.readHits = 800;
    c.readMisses = 100;
    c.writeHits = 90;
    c.writeMisses = 10;
    c.broadcasts = 17;
    c.broadcastCmds = 17 * 15;
    c.uselessCmds = 123;
    c.invalidations = 7;
    c.writebacks = 3;
    c.netMessages = 4242;

    const Json j = countsToJson(c);
    const Json back = Json::parse(j.dump(2));
    // Every field forEachField visits survives the round trip.
    AccessCounts::forEachField(
        c, [&back](const char *name, std::uint64_t v) {
            ASSERT_TRUE(back.contains(name)) << name;
            EXPECT_EQ(back.at(name).asUint(), v) << name;
        });
    EXPECT_DOUBLE_EQ(back.at("missRatio").asDouble(), c.missRatio());
    EXPECT_DOUBLE_EQ(back.at("uselessPerRef").asDouble(),
                     c.uselessPerRef());
}

TEST(Report, TimedResultJsonCarriesEveryField)
{
    TimedRunResult r;
    std::uint64_t v = 1000;
    for (const auto &f : timedResultFields)
        r.*f.member = ++v;
    r.avgLatency = 3.25;
    r.latencyP50 = ++v;
    r.latencyP95 = ++v;
    r.latencyP99 = ++v;

    Json axes = Json::object();
    axes.set("section", "timed");
    const Json back =
        Json::parse(timedResultToJson(r, std::move(axes)).dump(2));
    ASSERT_EQ(back.size(), std::size(timedResultFields) + 5);
    EXPECT_EQ(back.members().front().first, "section");
    auto once = [&back](const std::string &key) {
        int n = 0;
        for (const auto &m : back.members())
            n += m.first == key;
        return n;
    };
    for (const auto &f : timedResultFields) {
        EXPECT_EQ(once(f.name), 1) << f.name;
        EXPECT_EQ(back.at(f.name).asUint(), r.*f.member) << f.name;
    }
    // The cell keys that differ from their member names.
    EXPECT_EQ(back.at("cycles").asUint(), r.finalTick);
    EXPECT_EQ(back.at("refs").asUint(), r.refsCompleted);
    EXPECT_EQ(back.at("messages").asUint(), r.netMessages);
    EXPECT_EQ(back.at("mreqConversions").asUint(),
              r.mrequestConversions);
    for (const char *key :
         {"avgLatency", "latencyP50", "latencyP95", "latencyP99"})
        EXPECT_EQ(once(key), 1) << key;
    EXPECT_DOUBLE_EQ(back.at("avgLatency").asDouble(), 3.25);
    EXPECT_EQ(back.at("latencyP50").asUint(), r.latencyP50);
    EXPECT_EQ(back.at("latencyP95").asUint(), r.latencyP95);
    EXPECT_EQ(back.at("latencyP99").asUint(), r.latencyP99);
}

TEST(Report, ArtifactCarriesSchemaAndMeta)
{
    Json cells = Json::array();
    cells.push(Json::object().set("section", "s").set("x", 1));
    Json a = makeSweepArtifact("bench_x",
                               Json::object().set("n", 8),
                               std::move(cells));
    EXPECT_EQ(a.at("schema").asString(), reportSchemaName);
    EXPECT_EQ(a.at("schema_version").asInt(), reportSchemaVersion);
    EXPECT_EQ(a.at("bench").asString(), "bench_x");
    EXPECT_EQ(a.at("cells").size(), 1u);
    EXPECT_FALSE(a.contains("meta"));

    stampMeta(a, 4, 12.5, true);
    ASSERT_TRUE(a.contains("meta"));
    EXPECT_EQ(a.at("meta").at("threads").asUint(), 4u);
    EXPECT_TRUE(a.at("meta").at("quick").asBool());
}

TEST(Report, PayloadComparisonIgnoresMeta)
{
    auto build = [](unsigned threads, double wall) {
        Json cells = Json::array();
        cells.push(Json::object().set("section", "s").set("v", 7));
        Json a = makeSweepArtifact("bench_y", Json(),
                                   std::move(cells));
        stampMeta(a, threads, wall, false);
        return a;
    };
    const Json a = build(1, 100.0);
    const Json b = build(16, 3.5);
    EXPECT_FALSE(a == b); // meta differs...
    EXPECT_TRUE(sameArtifactPayload(a, b)); // ...payload doesn't.

    Json c = build(1, 100.0);
    c.set("bench", "bench_z");
    EXPECT_FALSE(sameArtifactPayload(a, c));
}

namespace
{

/** Minimal valid sweep artifact with one cell carrying `extra`. */
Json
artifactWithCell(Json extra)
{
    Json cells = Json::array();
    Json c = Json::object();
    c.set("section", "run");
    for (const auto &m : extra.members())
        c.set(m.first, m.second);
    cells.push(std::move(c));
    Json a = makeSweepArtifact("bench_tr", Json(), std::move(cells));
    stampMeta(a, 1, 1.0, false);
    return a;
}

/** A complete v4 traceReplay object. */
Json
goodTraceReplay()
{
    Json t = Json::object();
    t.set("records", 1000);
    t.set("blocks", 2);
    t.set("blockRecords", 512);
    t.set("mappedBytes", 16160);
    t.set("batched", true);
    return t;
}

} // namespace

TEST(Report, ValidatorAcceptsCompleteTraceReplayObject)
{
    const Json a = artifactWithCell(
        Json::object().set("traceReplay", goodTraceReplay()));
    EXPECT_EQ(validateSweepArtifact(a), "");
}

TEST(Report, ValidatorRejectsIncompleteTraceReplayObject)
{
    for (const char *missing :
         {"records", "blocks", "blockRecords", "mappedBytes"}) {
        Json t = Json::object();
        for (const char *key :
             {"records", "blocks", "blockRecords", "mappedBytes"})
            if (std::string(key) != missing)
                t.set(key, 1);
        t.set("batched", false);
        const Json a = artifactWithCell(
            Json::object().set("traceReplay", std::move(t)));
        const std::string err = validateSweepArtifact(a);
        EXPECT_NE(err.find(missing), std::string::npos) << err;
    }
}

TEST(Report, ValidatorRequiresBooleanBatchedFlag)
{
    Json t = goodTraceReplay();
    t.set("batched", "yes");
    const Json a = artifactWithCell(
        Json::object().set("traceReplay", std::move(t)));
    const std::string err = validateSweepArtifact(a);
    EXPECT_NE(err.find("batched"), std::string::npos) << err;
}

TEST(Report, ValidatorRejectsTraceReplayBeforeV4)
{
    Json a = artifactWithCell(
        Json::object().set("traceReplay", goodTraceReplay()));
    a.set("schema_version", 3);
    const std::string err = validateSweepArtifact(a);
    EXPECT_NE(err.find("schema_version >= 4"), std::string::npos)
        << err;
}

TEST(Report, ValidatorRequiresPercentilesOnHistogramStats)
{
    // A "stats" array is input from outside the program (no binary
    // writes one), so its histogram entries are still checked.
    Json h = Json::object();
    h.set("kind", "histogram");
    h.set("samples", 3);
    h.set("p50", 1);
    h.set("p95", 2);
    Json bad = Json::array();
    bad.push(h);
    const std::string err = validateSweepArtifact(
        artifactWithCell(Json::object().set("stats", std::move(bad))));
    EXPECT_NE(err.find("histogram stat lacks 'p99'"), std::string::npos)
        << err;
    h.set("p99", 3);
    Json good = Json::array();
    good.push(std::move(h));
    EXPECT_EQ(validateSweepArtifact(artifactWithCell(
                  Json::object().set("stats", std::move(good)))),
              "");
}

TEST(Report, WriteAndReadArtifactFile)
{
    const std::string path = testTempPath("dir2b_report_roundtrip.json");
    Json cells = Json::array();
    cells.push(Json::object()
                   .set("section", "s")
                   .set("text", "line\none \"two\"")
                   .set("value", 0.25));
    Json a = makeSweepArtifact("bench_io", Json(), std::move(cells));
    stampMeta(a, 2, 1.0, false);
    writeArtifact(path, a);
    const Json back = readArtifact(path);
    EXPECT_TRUE(back == a);
    std::remove(path.c_str());
}

} // namespace
} // namespace dir2b
