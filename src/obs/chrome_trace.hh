/**
 * @file
 * Chrome trace_event exporter and the `dir2b.trace` artifact schema.
 *
 * A dir2b trace artifact is ONE JSON object that is simultaneously
 *
 *  (a) a valid Chrome trace_event file — the top-level `traceEvents`
 *      array uses the standard phases ("M" metadata, "X" complete
 *      spans, "i" instants, "C" counters), so Perfetto and
 *      chrome://tracing load it directly (unknown top-level keys are
 *      ignored by both); and
 *
 *  (b) a versioned dir2b artifact — the same schema/schema_version/
 *      bench/params/summary/meta envelope as dir2b.sweep, so
 *      tools/check_artifact validates it and the determinism contract
 *      (docs/METRICS.md) carries over: everything outside `meta` is a
 *      pure function of the configuration.
 *
 * Tick timestamps are emitted as microseconds 1:1 (one cycle = 1 us on
 * the Perfetto timeline); the unit is cosmetic, relative durations are
 * what matter.
 *
 * The exporter streams events straight to the output stream instead of
 * building a Json document: a quarter-million-event ring would be
 * wasteful to materialise as a DOM first.
 */

#ifndef DIR2B_OBS_CHROME_TRACE_HH
#define DIR2B_OBS_CHROME_TRACE_HH

#include <ostream>
#include <string>

#include "obs/trace_recorder.hh"
#include "report/json.hh"

namespace dir2b
{

constexpr const char *traceSchemaName = "dir2b.trace";
constexpr int traceSchemaVersion = 1;

/**
 * Write the full artifact: envelope + metadata events naming every
 * recorder track + the recorded events, oldest first.
 *
 * @param bench   artifact producer name (e.g. "trace_dump")
 * @param params  run configuration (deterministic part)
 * @param summary per-phase latency summary (deterministic part)
 * @param meta    environment stamp (wall time etc.; excluded from
 *                determinism comparisons, like dir2b.sweep's meta)
 */
void writeTraceArtifact(std::ostream &os, const TraceRecorder &rec,
                        const std::string &bench, const Json &params,
                        const Json &summary, const Json &meta);

/**
 * Structural validation of a parsed dir2b.trace document.  Returns ""
 * when valid, else a one-line description of the first problem.
 * Shared by tools/check_artifact and the fixture tests.
 */
std::string validateTraceArtifact(const Json &doc);

} // namespace dir2b

#endif // DIR2B_OBS_CHROME_TRACE_HH
