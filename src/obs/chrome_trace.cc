#include "obs/chrome_trace.hh"

#include <sstream>

namespace dir2b
{

namespace
{

void
writeEscaped(std::ostream &os, const char *s)
{
    os << '"' << Json::escape(s ? s : "") << '"';
}

void
writeArgs(std::ostream &os, const TraceRecorder::Event &e)
{
    os << "\"args\":{";
    bool first = true;
    if (e.addr != invalidAddr) {
        os << "\"addr\":" << e.addr;
        first = false;
    }
    if (!first)
        os << ',';
    os << "\"arg0\":" << e.arg0 << ",\"arg1\":" << e.arg1 << '}';
}

void
writeEvent(std::ostream &os, const TraceRecorder::Event &e)
{
    os << "    {\"pid\":0,\"tid\":" << e.track << ",\"name\":";
    writeEscaped(os, e.name);
    switch (e.type) {
      case TraceRecorder::Ev::Span: {
        const Tick dur = e.end >= e.start ? e.end - e.start : 0;
        os << ",\"ph\":\"X\",\"ts\":" << e.start << ",\"dur\":" << dur
           << ',';
        writeArgs(os, e);
        break;
      }
      case TraceRecorder::Ev::Instant:
        os << ",\"ph\":\"i\",\"ts\":" << e.start << ",\"s\":\"t\",";
        writeArgs(os, e);
        break;
      case TraceRecorder::Ev::Counter:
        os << ",\"ph\":\"C\",\"ts\":" << e.start
           << ",\"args\":{\"value\":" << e.arg0 << '}';
        break;
    }
    os << '}';
}

void
writeObjectOrEmpty(std::ostream &os, const Json &j)
{
    if (j.isObject())
        j.write(os, 0);
    else
        os << "{}";
}

} // namespace

void
writeTraceArtifact(std::ostream &os, const TraceRecorder &rec,
                   const std::string &bench, const Json &params,
                   const Json &summary, const Json &meta)
{
    os << "{\n";
    os << "  \"schema\": \"" << traceSchemaName << "\",\n";
    os << "  \"schema_version\": " << traceSchemaVersion << ",\n";
    os << "  \"bench\": \"" << Json::escape(bench) << "\",\n";
    os << "  \"displayTimeUnit\": \"ms\",\n";
    os << "  \"params\": ";
    writeObjectOrEmpty(os, params);
    os << ",\n  \"summary\": ";
    writeObjectOrEmpty(os, summary);
    os << ",\n  \"traceEvents\": [\n";

    // Metadata events name the process and one "thread" per recorder
    // track; sort indices pin the track order to registration order.
    os << "    {\"pid\":0,\"tid\":0,\"ph\":\"M\","
          "\"name\":\"process_name\",\"args\":{\"name\":\"dir2b\"}}";
    const auto &tracks = rec.tracks();
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        os << ",\n    {\"pid\":0,\"tid\":" << t << ",\"ph\":\"M\","
           << "\"name\":\"thread_name\",\"args\":{\"name\":\""
           << Json::escape(tracks[t]) << "\"}}";
        os << ",\n    {\"pid\":0,\"tid\":" << t << ",\"ph\":\"M\","
           << "\"name\":\"thread_sort_index\",\"args\":"
           << "{\"sort_index\":" << t << "}}";
    }
    for (std::size_t i = 0; i < rec.size(); ++i) {
        os << ",\n";
        writeEvent(os, rec.at(i));
    }
    os << "\n  ],\n";
    os << "  \"meta\": ";
    writeObjectOrEmpty(os, meta);
    os << "\n}\n";
}

namespace
{

std::string
eventError(std::size_t i, const std::string &what)
{
    std::ostringstream os;
    os << "traceEvents[" << i << "]: " << what;
    return os.str();
}

std::string
validateEvent(std::size_t i, const Json &e)
{
    if (!e.isObject())
        return eventError(i, "not an object");
    for (const char *key : {"ph", "pid", "tid", "name"})
        if (!e.contains(key))
            return eventError(i, std::string("missing \"") + key + "\"");
    if (!e.at("ph").isString() || e.at("ph").asString().size() != 1)
        return eventError(i, "\"ph\" must be a one-char string");
    if (!e.at("pid").isNumber() || !e.at("tid").isNumber())
        return eventError(i, "\"pid\"/\"tid\" must be numbers");
    if (!e.at("name").isString())
        return eventError(i, "\"name\" must be a string");

    const char ph = e.at("ph").asString()[0];
    switch (ph) {
      case 'M':
        if (!e.contains("args") || !e.at("args").isObject())
            return eventError(i, "metadata event needs object \"args\"");
        return "";
      case 'X':
        if (!e.contains("ts") || !e.at("ts").isNumber())
            return eventError(i, "complete event needs numeric \"ts\"");
        if (!e.contains("dur") || !e.at("dur").isNumber())
            return eventError(i, "complete event needs numeric \"dur\"");
        return "";
      case 'i':
        if (!e.contains("ts") || !e.at("ts").isNumber())
            return eventError(i, "instant event needs numeric \"ts\"");
        if (!e.contains("s") || !e.at("s").isString())
            return eventError(i, "instant event needs scope \"s\"");
        return "";
      case 'C':
        if (!e.contains("ts") || !e.at("ts").isNumber())
            return eventError(i, "counter event needs numeric \"ts\"");
        if (!e.contains("args") || !e.at("args").isObject() ||
            !e.at("args").contains("value"))
            return eventError(i, "counter event needs args.value");
        return "";
      default:
        return eventError(i, std::string("unknown phase '") + ph + "'");
    }
}

} // namespace

std::string
validateTraceArtifact(const Json &doc)
{
    if (!doc.isObject())
        return "artifact is not a JSON object";
    for (const char *key :
         {"schema", "schema_version", "bench", "params", "summary",
          "traceEvents", "meta"})
        if (!doc.contains(key))
            return std::string("missing top-level \"") + key + "\"";
    if (!doc.at("schema").isString() ||
        doc.at("schema").asString() != traceSchemaName)
        return std::string("schema must be \"") + traceSchemaName + "\"";
    if (!doc.at("schema_version").isNumber())
        return "schema_version must be a number";
    const auto v = doc.at("schema_version").asInt();
    if (v < 1 || v > traceSchemaVersion) {
        std::ostringstream os;
        os << "unsupported schema_version " << v << " (know 1.."
           << traceSchemaVersion << ")";
        return os.str();
    }
    if (!doc.at("bench").isString() || doc.at("bench").asString().empty())
        return "bench must be a non-empty string";
    if (!doc.at("params").isObject())
        return "params must be an object";
    if (!doc.at("summary").isObject())
        return "summary must be an object";
    if (!doc.at("meta").isObject())
        return "meta must be an object";
    if (!doc.at("traceEvents").isArray())
        return "traceEvents must be an array";

    const auto &events = doc.at("traceEvents").elements();
    bool sawThreadName = false;
    bool sawData = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        std::string err = validateEvent(i, events[i]);
        if (!err.empty())
            return err;
        if (events[i].at("ph").asString() == "M") {
            if (events[i].at("name").asString() == "thread_name")
                sawThreadName = true;
        } else {
            sawData = true;
        }
    }
    if (sawData && !sawThreadName)
        return "no thread_name metadata event (tracks would be unnamed)";
    return "";
}

} // namespace dir2b
