#include "report/report.hh"

#include <fstream>
#include <sstream>

#include "timed/timed_system.hh"
#include "util/logging.hh"

namespace dir2b
{

Json
countsToJson(const AccessCounts &c)
{
    Json j = Json::object();
    AccessCounts::forEachField(
        c, [&j](const char *name, std::uint64_t v) {
            j.set(name, Json(static_cast<unsigned long long>(v)));
        });
    j.set("missRatio", c.missRatio());
    j.set("uselessPerRef", c.uselessPerRef());
    return j;
}

Json
runResultToJson(const RunResult &r)
{
    Json j = Json::object();
    j.set("counts", countsToJson(r.counts));
    j.set("perCacheUselessPerRef", r.perCacheUselessPerRef);

    Json measured = Json::object();
    measured.set("sharedRefs",
                 static_cast<unsigned long long>(r.sharedRefs));
    measured.set("sharedWrites",
                 static_cast<unsigned long long>(r.sharedWrites));
    measured.set("sharedHits",
                 static_cast<unsigned long long>(r.sharedHits));
    measured.set("q", r.measuredQ(r.counts.refs()));
    measured.set("w", r.measuredW());
    measured.set("h", r.measuredH());
    j.set("measured", measured);

    if (r.stateSamples) {
        Json occ = Json::object();
        static const char *const names[4] = {"absent", "present1",
                                             "presentStar", "presentM"};
        for (int s = 0; s < 4; ++s)
            occ.set(names[s], r.stateOccupancy[static_cast<size_t>(s)]);
        occ.set("samples",
                static_cast<unsigned long long>(r.stateSamples));
        j.set("stateOccupancy", occ);
    }
    return j;
}

Json
timedResultToJson(const TimedRunResult &r, Json j)
{
    for (const auto &f : timedResultFields)
        j.set(f.name, r.*f.member);
    j.set("avgLatency", r.avgLatency);
    j.set("latencyP50", r.latencyP50);
    j.set("latencyP95", r.latencyP95);
    j.set("latencyP99", r.latencyP99);
    return j;
}

Json
histogramSummaryJson(const Histogram &h)
{
    Json j = Json::object();
    j.set("samples", static_cast<unsigned long long>(h.samples()));
    j.set("mean", h.mean());
    j.set("min", static_cast<unsigned long long>(h.min()));
    j.set("max", static_cast<unsigned long long>(h.max()));
    j.set("p50", static_cast<unsigned long long>(h.p50()));
    j.set("p95", static_cast<unsigned long long>(h.p95()));
    j.set("p99", static_cast<unsigned long long>(h.p99()));
    return j;
}

Json
dirStoreJson(const DirStoreCounters &c)
{
    Json j = Json::object();
    for (const auto &f : dirStoreFields)
        j.set(f.name, static_cast<unsigned long long>(c.*f.member));
    return j;
}

namespace
{

/** v2 rule: percentile fields present and numeric on an object. */
std::string
checkPercentiles(const Json &obj, const std::string &where)
{
    for (const char *key : {"p50", "p95", "p99"}) {
        if (!obj.contains(key))
            return where + " lacks '" + key + "' (schema_version >= 2)";
        if (!obj.at(key).isNumber())
            return where + ": '" + key + "' is not numeric";
    }
    return "";
}

/** v3 rule: a "dirStore" object carries the complete counter set. */
std::string
checkDirStore(const Json &obj, const std::string &where)
{
    for (const char *key :
         {"ramBudgetBytes", "residentBytes", "compressedBytes",
          "segmentBytes", "hotPages", "coldPages", "diskPages",
          "compressions", "decompressions", "diskPageWrites",
          "diskPageReads"}) {
        if (!obj.contains(key))
            return where + " lacks '" + key +
                   "' (schema_version >= 3)";
        if (!obj.at(key).isNumber())
            return where + ": '" + key + "' is not numeric";
    }
    return "";
}

/** v4 rule: a "traceReplay" object carries complete provenance. */
std::string
checkTraceReplay(const Json &obj, const std::string &where)
{
    for (const char *key :
         {"records", "blocks", "blockRecords", "mappedBytes"}) {
        if (!obj.contains(key))
            return where + " lacks '" + key +
                   "' (schema_version >= 4)";
        if (!obj.at(key).isNumber())
            return where + ": '" + key + "' is not numeric";
    }
    if (!obj.contains("batched") ||
        obj.at("batched").kind() != Json::Kind::Bool)
        return where + " lacks a boolean 'batched'";
    return "";
}

/** v5 rule: a "series" object carries complete sampling provenance. */
std::string
checkSeries(const Json &obj, const std::string &where)
{
    if (!obj.contains("domain") || !obj.at("domain").isString() ||
        (obj.at("domain").asString() != "refs" &&
         obj.at("domain").asString() != "ticks"))
        return where + " lacks a 'domain' of \"refs\" or \"ticks\" "
                       "(schema_version >= 5)";
    for (const char *key : {"interval", "metrics", "samples"}) {
        if (!obj.contains(key))
            return where + " lacks '" + key +
                   "' (schema_version >= 5)";
        if (!obj.at(key).isNumber())
            return where + ": '" + key + "' is not numeric";
    }
    return "";
}

} // namespace

std::string
validateSweepArtifact(const Json &a)
{
    if (!a.isObject())
        return "top level is not an object";
    for (const char *key : {"schema", "schema_version", "bench",
                            "cells", "meta"})
        if (!a.contains(key))
            return std::string("missing required field '") + key + "'";
    if (!a.at("schema").isString())
        return "'schema' is not a string";
    const std::string schema = a.at("schema").asString();
    if (schema != reportSchemaName && schema != checkSchemaName)
        return "schema is '" + schema + "', expected '" +
               reportSchemaName + "' or '" + checkSchemaName + "'";
    if (!a.at("schema_version").isNumber())
        return "'schema_version' is not numeric";
    const auto version = a.at("schema_version").asInt();
    if (version < 1 || version > reportSchemaVersion)
        return "unsupported schema_version " + std::to_string(version);
    if (!a.at("cells").isArray())
        return "'cells' is not an array";

    std::size_t idx = 0;
    for (const Json &cell : a.at("cells").elements()) {
        const std::string where = "cell " + std::to_string(idx);
        if (!cell.isObject() || !cell.contains("section") ||
            !cell.at("section").isString())
            return where + " lacks a 'section' string";
        if (version >= 2) {
            // Distribution objects carry percentiles from v2 on: any
            // member named "latency", and any stat entry whose kind is
            // "histogram" (inside a "stats" array).
            if (cell.contains("latency")) {
                if (!cell.at("latency").isObject())
                    return where + ": 'latency' is not an object";
                if (auto err = checkPercentiles(cell.at("latency"),
                                                where + " latency");
                    !err.empty())
                    return err;
            }
            if (cell.contains("stats") && cell.at("stats").isArray()) {
                for (const Json &s : cell.at("stats").elements()) {
                    if (!s.isObject() || !s.contains("kind") ||
                        !s.at("kind").isString() ||
                        s.at("kind").asString() != "histogram")
                        continue;
                    if (auto err = checkPercentiles(
                            s, where + " histogram stat");
                        !err.empty())
                        return err;
                }
            }
        }
        if (cell.contains("dirStore")) {
            if (version < 3)
                return where +
                       ": 'dirStore' needs schema_version >= 3";
            if (!cell.at("dirStore").isObject())
                return where + ": 'dirStore' is not an object";
            if (auto err = checkDirStore(cell.at("dirStore"),
                                         where + " dirStore");
                !err.empty())
                return err;
        }
        if (cell.contains("traceReplay")) {
            if (version < 4)
                return where +
                       ": 'traceReplay' needs schema_version >= 4";
            if (!cell.at("traceReplay").isObject())
                return where + ": 'traceReplay' is not an object";
            if (auto err = checkTraceReplay(cell.at("traceReplay"),
                                            where + " traceReplay");
                !err.empty())
                return err;
        }
        if (cell.contains("series")) {
            if (version < 5)
                return where + ": 'series' needs schema_version >= 5";
            if (!cell.at("series").isObject())
                return where + ": 'series' is not an object";
            if (auto err = checkSeries(cell.at("series"),
                                       where + " series");
                !err.empty())
                return err;
        }
        ++idx;
    }
    const Json &meta = a.at("meta");
    if (!meta.isObject() || !meta.contains("threads") ||
        !meta.contains("wall_ms"))
        return "malformed 'meta' block";
    return "";
}

Json
makeSweepArtifact(const std::string &bench, Json params, Json cells,
                  Json summary)
{
    DIR2B_ASSERT(cells.isArray(), "artifact cells must be an array");
    Json j = Json::object();
    j.set("schema", reportSchemaName);
    j.set("schema_version", reportSchemaVersion);
    j.set("bench", bench);
    if (!params.isNull())
        j.set("params", std::move(params));
    j.set("cells", std::move(cells));
    if (!summary.isNull())
        j.set("summary", std::move(summary));
    return j;
}

Json
makeCheckArtifact(const std::string &tool, Json params, Json cells,
                  Json summary)
{
    DIR2B_ASSERT(cells.isArray(), "artifact cells must be an array");
    Json j = Json::object();
    j.set("schema", checkSchemaName);
    j.set("schema_version", reportSchemaVersion);
    j.set("bench", tool);
    if (!params.isNull())
        j.set("params", std::move(params));
    j.set("cells", std::move(cells));
    if (!summary.isNull())
        j.set("summary", std::move(summary));
    return j;
}

void
stampMeta(Json &artifact, unsigned threads, double wallMs, bool quick)
{
    Json meta = Json::object();
    meta.set("threads", threads);
    meta.set("wall_ms", wallMs);
    meta.set("quick", quick);
    artifact.set("meta", std::move(meta));
}

void
writeArtifact(const std::string &path, const Json &artifact)
{
    std::ofstream out(path);
    if (!out)
        DIR2B_FATAL("cannot open '", path, "' for writing");
    artifact.write(out, 2);
    out << "\n";
    if (!out)
        DIR2B_FATAL("write to '", path, "' failed");
}

Json
readArtifact(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        DIR2B_FATAL("cannot open '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return Json::parse(buf.str());
    } catch (const std::exception &e) {
        DIR2B_FATAL("'", path, "': ", e.what());
    }
}

bool
sameArtifactPayload(const Json &a, const Json &b)
{
    if (!a.isObject() || !b.isObject())
        return a == b;
    auto strip = [](const Json &j) {
        Json out = Json::object();
        for (const auto &m : j.members())
            if (m.first != "meta")
                out.set(m.first, m.second);
        return out;
    };
    return strip(a) == strip(b);
}

} // namespace dir2b
