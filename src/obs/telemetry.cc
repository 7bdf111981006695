#include "obs/telemetry.hh"

#include <cstdio>
#include <cstring>

#include "obs/trace_recorder.hh"
#include "util/logging.hh"

namespace dir2b
{

// ----------------------------------------------------------------------
// MetricRegistry
// ----------------------------------------------------------------------

std::size_t
MetricRegistry::push(std::string name, MetricKind kind, const void *ptr,
                     Probe fn, std::size_t arg)
{
    DIR2B_ASSERT(!name.empty(), "metric name must be non-empty");
    if (find(name.c_str()) != npos)
        DIR2B_FATAL("duplicate metric '", name, "'");
    names_.push_back(std::move(name));
    metrics_.push_back({names_.back().c_str(), ptr, fn, arg, kind});
    return metrics_.size() - 1;
}

std::size_t
MetricRegistry::add(std::string name, MetricKind kind,
                    const std::uint64_t *word)
{
    DIR2B_ASSERT(word, "null word source");
    return push(std::move(name), kind, word, nullptr, 0);
}

std::size_t
MetricRegistry::add(std::string name, MetricKind kind, Probe fn,
                    const void *ctx, std::size_t arg)
{
    DIR2B_ASSERT(fn, "null probe source");
    return push(std::move(name), kind, ctx, fn, arg);
}

std::size_t
MetricRegistry::find(const char *name) const
{
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        if (std::strcmp(metrics_[i].name, name) == 0)
            return i;
    return npos;
}

std::uint64_t
MetricRegistry::read(std::size_t i) const
{
    const Metric &m = metrics_[i];
    return m.fn ? m.fn(m.ptr, m.arg)
                : *static_cast<const std::uint64_t *>(m.ptr);
}

// ----------------------------------------------------------------------
// TelemetrySampler
// ----------------------------------------------------------------------

TelemetrySampler::TelemetrySampler(SeriesDomain domain,
                                   std::uint64_t interval)
    : domain_(domain), interval_(interval), next_(interval)
{
    DIR2B_ASSERT(interval >= 1, "sampling interval must be at least 1");
}

void
TelemetrySampler::attachRecorder(TraceRecorder *rec)
{
    DIR2B_ASSERT(rec, "null recorder");
    DIR2B_ASSERT(samples_ == 0,
                 "attachRecorder after sampling started");
    recorders_.push_back({rec, rec->addTrack("metrics")});
}

void
TelemetrySampler::emit(std::uint64_t t)
{
    const std::size_t n = reg_.size();
    rows_.push_back(t);
    for (std::size_t i = 0; i < n; ++i)
        rows_.push_back(reg_.read(i));
    // Re-read via the row, not the registry: sinks must see exactly
    // what the artifact will record.
    const std::uint64_t *row = rows_.data() + samples_ * (1 + n) + 1;
    for (const RecorderSink &sink : recorders_)
        for (std::size_t i = 0; i < n; ++i)
            sink.rec->counter(t, sink.track, reg_.name(i), row[i]);
    lastT_ = t;
    ++samples_;
    if (progress_)
        progress_->onSample(*this);
}

void
TelemetrySampler::flushUpTo(std::uint64_t t)
{
    if (finished_)
        return;
    while (next_ <= t) {
        const std::uint64_t boundary = next_;
        // Advance first (saturating): emit() must observe the *new*
        // nextBoundary if a sink ever asks.
        next_ = next_ > ~std::uint64_t(0) - interval_
                    ? ~std::uint64_t(0)
                    : next_ + interval_;
        emit(boundary);
        if (boundary == ~std::uint64_t(0))
            break;
    }
}

void
TelemetrySampler::finish(std::uint64_t finalT)
{
    if (finished_)
        return;
    flushUpTo(finalT);
    // The final partial interval: exactly one sample at finalT unless
    // a boundary already landed there.  A run shorter than one
    // interval thus still yields its end-of-run snapshot.
    if (samples_ == 0 || lastT_ != finalT)
        emit(finalT);
    finished_ = true;
    if (progress_)
        progress_->finish();
}

std::uint64_t
TelemetrySampler::sampleT(std::size_t s) const
{
    return rows_[s * (1 + reg_.size())];
}

std::uint64_t
TelemetrySampler::sampleValue(std::size_t s, std::size_t metric) const
{
    return rows_[s * (1 + reg_.size()) + 1 + metric];
}

// ----------------------------------------------------------------------
// ProgressMeter
// ----------------------------------------------------------------------

namespace
{

/** 12345678 -> "12.3M" (fits a progress line). */
void
humanCount(std::uint64_t v, char *buf, std::size_t n)
{
    if (v >= 10'000'000)
        std::snprintf(buf, n, "%.1fM", static_cast<double>(v) / 1e6);
    else if (v >= 10'000)
        std::snprintf(buf, n, "%.1fk", static_cast<double>(v) / 1e3);
    else
        std::snprintf(buf, n, "%llu",
                      static_cast<unsigned long long>(v));
}

} // namespace

ProgressMeter::ProgressMeter(std::uint64_t totalRefs)
    : total_(totalRefs), start_(std::chrono::steady_clock::now()),
      lastDraw_(start_)
{
}

void
ProgressMeter::onSample(const TelemetrySampler &s)
{
    const auto now = std::chrono::steady_clock::now();
    if (drawn_ && now - lastDraw_ < std::chrono::milliseconds(200))
        return;
    if (!refsIdxResolved_) {
        refsIdx_ = s.registry().find("refs.completed");
        refsIdxResolved_ = true;
    }
    const std::size_t last = s.samples() - 1;
    const std::uint64_t done = refsIdx_ == MetricRegistry::npos
                                   ? s.sampleT(last)
                                   : s.sampleValue(last, refsIdx_);
    const double secs =
        std::chrono::duration<double>(now - start_).count();
    const double rate = secs > 0 ? static_cast<double>(done) / secs : 0;

    char doneBuf[32], rateBuf[32], deltaBuf[32];
    humanCount(done, doneBuf, sizeof(doneBuf));
    humanCount(static_cast<std::uint64_t>(rate), rateBuf,
               sizeof(rateBuf));
    humanCount(done - prevDone_, deltaBuf, sizeof(deltaBuf));

    if (total_ && rate > 0) {
        const double eta =
            done >= total_
                ? 0.0
                : static_cast<double>(total_ - done) / rate;
        char totalBuf[32];
        humanCount(total_, totalBuf, sizeof(totalBuf));
        std::fprintf(stderr,
                     "\r%s/%s refs  %5.1f%%  %s refs/s  ETA %.1fs  "
                     "[+%s]   ",
                     doneBuf, totalBuf,
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(total_),
                     rateBuf, eta, deltaBuf);
    } else {
        std::fprintf(stderr, "\r%s refs  %s refs/s  [+%s]   ",
                     doneBuf, rateBuf, deltaBuf);
    }
    std::fflush(stderr);
    prevDone_ = done;
    lastDraw_ = now;
    drawn_ = true;
}

void
ProgressMeter::finish()
{
    if (!drawn_)
        return;
    std::fputc('\n', stderr);
    std::fflush(stderr);
    drawn_ = false;
}

// ----------------------------------------------------------------------
// dir2b.series artifact
// ----------------------------------------------------------------------

namespace
{

const char *
domainName(SeriesDomain d)
{
    return d == SeriesDomain::Refs ? "refs" : "ticks";
}

const char *
kindName(MetricKind k)
{
    return k == MetricKind::Counter ? "counter" : "gauge";
}

/** Unsigned 64-bit value check that never panics on hostile input. */
bool
isU64(const Json &j)
{
    return j.kind() == Json::Kind::Uint ||
           (j.kind() == Json::Kind::Int && j.asInt() >= 0);
}

} // namespace

Json
makeSeriesArtifact(const std::string &bench, Json params,
                   const TelemetrySampler &s)
{
    Json a = Json::object();
    a.set("schema", seriesSchemaName);
    a.set("schema_version", seriesSchemaVersion);
    a.set("bench", bench);
    a.set("params", params.isNull() ? Json::object()
                                    : std::move(params));

    const MetricRegistry &reg = s.registry();
    Json series = Json::object();
    series.set("domain", domainName(s.domain()));
    series.set("interval", s.interval());
    Json metrics = Json::array();
    for (std::size_t i = 0; i < reg.size(); ++i) {
        Json m = Json::object();
        m.set("name", reg.name(i));
        m.set("kind", kindName(reg.kind(i)));
        metrics.push(std::move(m));
    }
    series.set("metrics", std::move(metrics));
    Json rows = Json::array();
    for (std::size_t r = 0; r < s.samples(); ++r) {
        Json row = Json::array();
        row.push(s.sampleT(r));
        for (std::size_t i = 0; i < reg.size(); ++i)
            row.push(s.sampleValue(r, i));
        rows.push(std::move(row));
    }
    series.set("samples", std::move(rows));
    a.set("series", std::move(series));

    Json summary = Json::object();
    summary.set("samples", static_cast<std::uint64_t>(s.samples()));
    summary.set("finalT",
                s.samples() ? s.sampleT(s.samples() - 1)
                            : std::uint64_t(0));
    a.set("summary", std::move(summary));
    return a;
}

Json
seriesProvenanceJson(const TelemetrySampler &s)
{
    Json p = Json::object();
    p.set("domain", domainName(s.domain()));
    p.set("interval", s.interval());
    p.set("metrics", static_cast<std::uint64_t>(s.registry().size()));
    p.set("samples", static_cast<std::uint64_t>(s.samples()));
    return p;
}

std::string
validateSeriesArtifact(const Json &doc)
{
    if (!doc.isObject())
        return "document is not an object";
    for (const char *key : {"schema", "schema_version", "bench",
                            "params", "series", "summary"})
        if (!doc.contains(key))
            return std::string("missing key '") + key + "'";
    if (!doc.at("schema").isString() ||
        doc.at("schema").asString() != seriesSchemaName)
        return "schema is not \"dir2b.series\"";
    const Json &ver = doc.at("schema_version");
    if (!isU64(ver) || ver.asUint() < 1 ||
        ver.asUint() > static_cast<std::uint64_t>(seriesSchemaVersion))
        return "unsupported schema_version";
    if (!doc.at("bench").isString())
        return "bench is not a string";
    if (!doc.at("params").isObject())
        return "params is not an object";
    if (doc.contains("meta"))
        return "series artifacts must not carry a meta block";

    const Json &se = doc.at("series");
    if (!se.isObject())
        return "series is not an object";
    for (const char *key : {"domain", "interval", "metrics", "samples"})
        if (!se.contains(key))
            return std::string("series is missing '") + key + "'";
    if (!se.at("domain").isString() ||
        (se.at("domain").asString() != "refs" &&
         se.at("domain").asString() != "ticks"))
        return "series.domain must be \"refs\" or \"ticks\"";
    if (!isU64(se.at("interval")) || se.at("interval").asUint() < 1)
        return "series.interval must be a positive integer";

    const Json &metrics = se.at("metrics");
    if (!metrics.isArray())
        return "series.metrics is not an array";
    std::vector<bool> isCounter;
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Json &m = metrics.at(i);
        if (!m.isObject() || !m.contains("name") ||
            !m.contains("kind"))
            return "series.metrics entries need name and kind";
        if (!m.at("name").isString() ||
            m.at("name").asString().empty())
            return "metric name must be a non-empty string";
        if (!m.at("kind").isString() ||
            (m.at("kind").asString() != "counter" &&
             m.at("kind").asString() != "gauge"))
            return "metric kind must be \"counter\" or \"gauge\"";
        for (const std::string &p : seen)
            if (p == m.at("name").asString())
                return "duplicate metric name '" +
                       m.at("name").asString() + "'";
        seen.push_back(m.at("name").asString());
        isCounter.push_back(m.at("kind").asString() == "counter");
    }

    const Json &rows = se.at("samples");
    if (!rows.isArray())
        return "series.samples is not an array";
    std::vector<std::uint64_t> prev;
    std::uint64_t prevT = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const Json &row = rows.at(r);
        if (!row.isArray() || row.size() != 1 + metrics.size())
            return "sample rows must hold t plus one value per metric";
        for (std::size_t c = 0; c < row.size(); ++c)
            if (!isU64(row.at(c)))
                return "sample values must be unsigned integers";
        const std::uint64_t t = row.at(0).asUint();
        if (r > 0 && t <= prevT)
            return "sample t is not strictly increasing";
        for (std::size_t m = 0; m < metrics.size(); ++m) {
            const std::uint64_t v = row.at(1 + m).asUint();
            if (r > 0 && isCounter[m] && v < prev[m])
                return "counter '" + seen[m] + "' decreased";
            if (r == 0)
                prev.push_back(v);
            else
                prev[m] = v;
        }
        prevT = t;
    }

    const Json &summary = doc.at("summary");
    if (!summary.isObject() || !summary.contains("samples") ||
        !summary.contains("finalT"))
        return "summary needs samples and finalT";
    if (!isU64(summary.at("samples")) ||
        summary.at("samples").asUint() != rows.size())
        return "summary.samples disagrees with series.samples";
    const std::uint64_t wantFinal =
        rows.size() ? rows.at(rows.size() - 1).at(0).asUint() : 0;
    if (!isU64(summary.at("finalT")) ||
        summary.at("finalT").asUint() != wantFinal)
        return "summary.finalT disagrees with the last sample";
    return "";
}

} // namespace dir2b
