/**
 * @file
 * Artifact validator for CI and smoke tests.
 *
 *   check_artifact FILE [--cells N] [--bench NAME] [--compare OTHER]
 *
 * Checks that FILE parses as JSON and carries one of the dir2b
 * artifact schemas, dispatching on the "schema" discriminator:
 *
 *   dir2b.sweep / dir2b.check  - validateSweepArtifact() (report/)
 *   dir2b.trace                - validateTraceArtifact() (obs/)
 *   dir2b.series               - validateSeriesArtifact() (obs/)
 *
 * With --cells the cell count must equal N (sweep/check only — trace
 * artifacts have traceEvents, series artifacts samples); with --bench
 * the "bench" field must equal NAME; with --compare the two artifacts
 * must have equal payloads once the volatile "meta" block is excluded
 * — the determinism contract between --threads 1 and --threads N runs
 * (series artifacts carry no meta at all, so --compare there is full
 * document equality).
 * Exits 0 on success, 1 with a diagnostic on any violation.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/chrome_trace.hh"
#include "obs/telemetry.hh"
#include "report/report.hh"
#include "util/parse_args.hh"

namespace
{

using dir2b::Json;

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "check_artifact: %s\n", msg.c_str());
    std::exit(1);
}

/** True when the artifact declares schema discriminator `name`. */
bool
hasSchema(const Json &a, const char *name)
{
    return a.isObject() && a.contains("schema") &&
           a.at("schema").isString() && a.at("schema").asString() == name;
}

bool
isTrace(const Json &a)
{
    return hasSchema(a, dir2b::traceSchemaName);
}

bool
isSeries(const Json &a)
{
    return hasSchema(a, dir2b::seriesSchemaName);
}

/** Schema checks shared by the primary and --compare artifacts. */
void
validate(const Json &a, const std::string &path)
{
    const std::string err =
        isTrace(a)    ? dir2b::validateTraceArtifact(a)
        : isSeries(a) ? dir2b::validateSeriesArtifact(a)
                      : dir2b::validateSweepArtifact(a);
    if (!err.empty())
        fail(path + ": " + err);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchName;
    std::string comparePath;
    long long wantCells = -1;

    const dir2b::ParsedArgs args = dir2b::parseArgs(
        argc, argv,
        {"FILE [options]",
         "Validate a dir2b.sweep, dir2b.check, dir2b.trace or "
         "dir2b.series JSON artifact (see docs/METRICS.md, "
         "docs/CHECKING.md and docs/TRACING.md).",
         {
             {"--cells", dir2b::arg::count(wantCells),
              "require exactly N cells (sweep/check only)"},
             {"--bench", dir2b::arg::text(benchName, "NAME"),
              "require the bench field to equal NAME"},
             {"--compare", dir2b::arg::text(comparePath, "OTHER"),
              "require payload equality with artifact OTHER, ignoring "
              "the volatile meta block"},
         },
         {{"", "FILE"}}});
    const std::string &path = args.operands.front();

    const Json a = dir2b::readArtifact(path);
    validate(a, path);

    if (isSeries(a)) {
        if (wantCells >= 0)
            fail(path + ": --cells does not apply to dir2b.series "
                        "artifacts");
        if (!benchName.empty() &&
            a.at("bench").asString() != benchName)
            fail(path + ": bench is '" + a.at("bench").asString() +
                 "', expected '" + benchName + "'");
        if (!comparePath.empty()) {
            const Json b = dir2b::readArtifact(comparePath);
            validate(b, comparePath);
            if (!dir2b::sameArtifactPayload(a, b))
                fail(path + " and " + comparePath + " differ");
        }
        std::printf("check_artifact: %s ok (%zu samples, %zu metrics, "
                    "bench %s)\n",
                    path.c_str(),
                    a.at("series").at("samples").size(),
                    a.at("series").at("metrics").size(),
                    a.at("bench").asString().c_str());
        return 0;
    }

    if (isTrace(a)) {
        if (wantCells >= 0)
            fail(path + ": --cells does not apply to dir2b.trace "
                        "artifacts");
        if (!benchName.empty() &&
            a.at("bench").asString() != benchName)
            fail(path + ": bench is '" + a.at("bench").asString() +
                 "', expected '" + benchName + "'");
        if (!comparePath.empty()) {
            const Json b = dir2b::readArtifact(comparePath);
            validate(b, comparePath);
            if (!dir2b::sameArtifactPayload(a, b))
                fail(path + " and " + comparePath +
                     " differ outside the meta block");
        }
        std::printf("check_artifact: %s ok (%zu trace events, "
                    "bench %s)\n",
                    path.c_str(), a.at("traceEvents").size(),
                    a.at("bench").asString().c_str());
        return 0;
    }

    const std::size_t cells = a.at("cells").size();
    if (wantCells >= 0 &&
        cells != static_cast<std::size_t>(wantCells))
        fail(path + ": expected " + std::to_string(wantCells) +
             " cells, found " + std::to_string(cells));
    if (!benchName.empty() && a.at("bench").asString() != benchName)
        fail(path + ": bench is '" + a.at("bench").asString() +
             "', expected '" + benchName + "'");

    if (!comparePath.empty()) {
        const Json b = dir2b::readArtifact(comparePath);
        validate(b, comparePath);
        if (!dir2b::sameArtifactPayload(a, b))
            fail(path + " and " + comparePath +
                 " differ outside the meta block");
    }

    std::printf("check_artifact: %s ok (%zu cells, bench %s)\n",
                path.c_str(), cells, a.at("bench").asString().c_str());
    return 0;
}
