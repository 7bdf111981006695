/**
 * @file
 * Human-readable view of a dir2b.series artifact.
 *
 *   series_dump FILE [--metric NAME]... [--list] [--json]
 *               [--phase-threshold F]
 *
 * Prints a per-interval table — counters as per-interval deltas
 * (rates), gauges as sampled levels — followed by a phase-boundary
 * report: sample boundaries where some counter's rate changed by more
 * than the threshold (relative change against the larger of the two
 * rates, default 0.5) are flagged with the most-changed metric.  That
 * is usually enough to spot warm-up ending, a working set shifting,
 * or the directory store starting to spill.
 *
 * --metric NAME (repeatable) restricts the table's columns (exact
 * names; --list shows what the artifact carries).  The phase report
 * always scans every counter.  --json re-emits the derived view
 * (rates, phases) as machine-readable JSON on stdout.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "report/report.hh"
#include "util/parse_args.hh"

namespace
{

using dir2b::Json;

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "series_dump: %s\n", msg.c_str());
    std::exit(1);
}

/** The artifact, decoded into flat vectors. */
struct Series
{
    std::string bench;
    std::string domain;
    std::uint64_t interval = 0;
    std::vector<std::string> names;
    std::vector<bool> isCounter;
    std::vector<std::uint64_t> t;           ///< per sample
    std::vector<std::uint64_t> v;           ///< samples x metrics
    std::size_t samples = 0;

    std::uint64_t
    value(std::size_t s, std::size_t m) const
    {
        return v[s * names.size() + m];
    }

    /** Counter delta over sample s (s=0: since zero); gauge level. */
    std::uint64_t
    cell(std::size_t s, std::size_t m) const
    {
        if (!isCounter[m])
            return value(s, m);
        return s ? value(s, m) - value(s - 1, m) : value(s, m);
    }
};

Series
decode(const Json &a)
{
    Series out;
    out.bench = a.at("bench").asString();
    const Json &ser = a.at("series");
    out.domain = ser.at("domain").asString();
    out.interval = ser.at("interval").asUint();
    const Json &metrics = ser.at("metrics");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out.names.push_back(metrics.at(i).at("name").asString());
        out.isCounter.push_back(
            metrics.at(i).at("kind").asString() == "counter");
    }
    const Json &rows = ser.at("samples");
    out.samples = rows.size();
    for (std::size_t s = 0; s < rows.size(); ++s) {
        const Json &row = rows.at(s);
        out.t.push_back(row.at(0).asUint());
        for (std::size_t m = 0; m < out.names.size(); ++m)
            out.v.push_back(row.at(m + 1).asUint());
    }
    return out;
}

/** One detected phase boundary. */
struct Phase
{
    std::size_t sample;   ///< the sample where the new rate holds
    std::size_t metric;   ///< most-changed counter
    std::uint64_t before; ///< rate over the previous interval
    std::uint64_t after;  ///< rate over this interval
    double change;        ///< relative change in [0,1]
};

/**
 * Scan every counter's per-interval rate for relative changes above
 * `threshold`.  Tiny rates (both sides < 16/interval) are ignored so
 * sparse counters don't flag noise.  Deterministic: pure integer
 * comparisons plus one final division for the report.
 */
std::vector<Phase>
detectPhases(const Series &s, double threshold)
{
    std::vector<Phase> out;
    for (std::size_t i = 1; i < s.samples; ++i) {
        Phase best{};
        bool found = false;
        for (std::size_t m = 0; m < s.names.size(); ++m) {
            if (!s.isCounter[m])
                continue;
            const std::uint64_t before = s.cell(i - 1, m);
            const std::uint64_t after = s.cell(i, m);
            const std::uint64_t hi = std::max(before, after);
            const std::uint64_t lo = std::min(before, after);
            if (hi < 16)
                continue;
            const double change =
                static_cast<double>(hi - lo) / static_cast<double>(hi);
            if (change < threshold)
                continue;
            if (!found || change > best.change) {
                best = {i, m, before, after, change};
                found = true;
            }
        }
        if (found)
            out.push_back(best);
    }
    return out;
}

void
printTable(const Series &s, const std::vector<std::size_t> &cols)
{
    std::vector<int> widths;
    std::printf("%12s", s.domain == "refs" ? "refs" : "tick");
    for (std::size_t m : cols) {
        const int w = std::max<int>(
            12, static_cast<int>(s.names[m].size()) + 2);
        widths.push_back(w);
        std::printf("%*s", w, s.names[m].c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < s.samples; ++i) {
        std::printf("%12llu",
                    static_cast<unsigned long long>(s.t[i]));
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf("%*llu", widths[c],
                        static_cast<unsigned long long>(
                            s.cell(i, cols[c])));
        std::printf("\n");
    }
    std::printf("(counters shown as per-interval deltas, gauges as "
                "levels)\n");
}

Json
jsonView(const Series &s, const std::vector<std::size_t> &cols,
         const std::vector<Phase> &phases)
{
    Json out = Json::object();
    out.set("bench", s.bench);
    out.set("domain", s.domain);
    out.set("interval",
            static_cast<unsigned long long>(s.interval));
    Json jm = Json::array();
    for (std::size_t m : cols) {
        Json one = Json::object();
        one.set("name", s.names[m]);
        one.set("kind", s.isCounter[m] ? "counter" : "gauge");
        jm.push(std::move(one));
    }
    out.set("metrics", std::move(jm));
    Json rows = Json::array();
    for (std::size_t i = 0; i < s.samples; ++i) {
        Json row = Json::array();
        row.push(static_cast<unsigned long long>(s.t[i]));
        for (std::size_t m : cols)
            row.push(static_cast<unsigned long long>(s.cell(i, m)));
        rows.push(std::move(row));
    }
    out.set("rows", std::move(rows));
    Json jp = Json::array();
    for (const Phase &p : phases) {
        Json one = Json::object();
        one.set("t", static_cast<unsigned long long>(s.t[p.sample]));
        one.set("metric", s.names[p.metric]);
        one.set("before",
                static_cast<unsigned long long>(p.before));
        one.set("after", static_cast<unsigned long long>(p.after));
        one.set("change", p.change);
        jp.push(std::move(one));
    }
    out.set("phases", std::move(jp));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> wantMetrics;
    bool list = false;
    bool json = false;
    double threshold = 0.5;

    const dir2b::ParsedArgs args = dir2b::parseArgs(
        argc, argv,
        {"FILE [options]",
         "Print a dir2b.series time-series artifact (docs/METRICS.md) "
         "as a per-interval table plus a phase-boundary report.",
         {
             {"--metric", dir2b::arg::texts(wantMetrics, "NAME"),
              "only this column (repeatable)"},
             {"--list", dir2b::arg::on(list),
              "list metric names and kinds, exit"},
             {"--json", dir2b::arg::on(json),
              "emit the derived view as JSON"},
             {"--phase-threshold", dir2b::arg::real(threshold, 0.0, 1.0),
              "relative rate change that counts as a phase boundary "
              "(default 0.5)"},
         },
         {{"", "FILE"}}});
    const std::string &path = args.operands.front();

    const Json a = dir2b::readArtifact(path);
    const std::string err = dir2b::validateSeriesArtifact(a);
    if (!err.empty())
        fail(path + ": " + err);
    const Series s = decode(a);

    if (list) {
        for (std::size_t m = 0; m < s.names.size(); ++m)
            std::printf("%-32s %s\n", s.names[m].c_str(),
                        s.isCounter[m] ? "counter" : "gauge");
        return 0;
    }

    std::vector<std::size_t> cols;
    if (wantMetrics.empty()) {
        for (std::size_t m = 0; m < s.names.size(); ++m)
            cols.push_back(m);
    } else {
        for (const std::string &w : wantMetrics) {
            const auto it =
                std::find(s.names.begin(), s.names.end(), w);
            if (it == s.names.end())
                fail("no metric '" + w + "' in " + path +
                     " (try --list)");
            cols.push_back(static_cast<std::size_t>(
                it - s.names.begin()));
        }
    }

    const std::vector<Phase> phases = detectPhases(s, threshold);

    if (json) {
        std::printf("%s\n", jsonView(s, cols, phases).dump().c_str());
        return 0;
    }

    std::printf("# %s: %s-domain series, interval %llu, %zu samples, "
                "%zu metrics\n",
                s.bench.c_str(), s.domain.c_str(),
                static_cast<unsigned long long>(s.interval),
                s.samples, s.names.size());
    printTable(s, cols);
    if (phases.empty()) {
        std::printf("\nno phase boundaries above %.0f%% rate change\n",
                    100.0 * threshold);
    } else {
        std::printf("\nphase boundaries (>%.0f%% rate change):\n",
                    100.0 * threshold);
        for (const Phase &p : phases)
            std::printf("  t=%llu  %s rate %llu -> %llu (%+.0f%%)\n",
                        static_cast<unsigned long long>(s.t[p.sample]),
                        s.names[p.metric].c_str(),
                        static_cast<unsigned long long>(p.before),
                        static_cast<unsigned long long>(p.after),
                        100.0 *
                            (p.after >= p.before ? p.change
                                                 : -p.change));
    }
    return 0;
}
