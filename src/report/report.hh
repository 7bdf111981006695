/**
 * @file
 * Structured metrics export: the BENCH_*.json artifact schema.
 *
 * Every table bench (and dir2bsim) can serialize its sweep to a JSON
 * artifact so results are diffable across commits and machines.  The
 * layout (schema version 1, see docs/METRICS.md for field meanings):
 *
 *   {
 *     "schema": "dir2b.sweep",
 *     "schema_version": 1,
 *     "bench": "<binary name>",
 *     "params": { ...grid-wide configuration... },
 *     "cells":  [ { "section": ..., <axes>, <results> }, ... ],
 *     "summary": { ...cross-cell aggregates... },
 *     "meta":   { "threads": N, "wall_ms": T, "quick": B }
 *   }
 *
 * Everything outside "meta" is a pure function of the configuration —
 * a sweep at --threads 1 and --threads 16 emits byte-identical text
 * once "meta" is excluded (sameArtifactPayload() implements exactly
 * that comparison).  Cells appear in grid order, never in completion
 * order.
 */

#ifndef DIR2B_REPORT_REPORT_HH
#define DIR2B_REPORT_REPORT_HH

#include <string>

#include "core/two_bit_directory.hh"
#include "proto/counts.hh"
#include "report/json.hh"
#include "sim/stats.hh"
#include "system/func_system.hh"

namespace dir2b
{

struct TimedRunResult;

/** Version of the artifact layout; bump on any incompatible change
 *  and record the change in docs/METRICS.md.
 *  v2: histogram stat entries and "latency" summary objects carry
 *  p50/p95/p99 percentile fields.
 *  v3: cells produced by a TieredStore-backed directory may carry a
 *  "dirStore" object (resident/compressed/segment bytes, per-tier
 *  page counts and tier-movement counters); when present it must be
 *  complete.  Timed cells may carry legacy epoch-accounting fields
 *  from an engine since removed; they are optional, and nothing
 *  writes them any more.
 *  v4: cells produced by replaying a binary trace (docs/TRACES.md)
 *  may carry a "traceReplay" provenance object (records, blocks,
 *  blockRecords, mappedBytes, batched flag); when present it must be
 *  complete.
 *  v5: cells whose run was telemetry-sampled (obs/telemetry.hh) may
 *  carry a "series" provenance object (domain, interval, metrics,
 *  samples) pointing at the companion dir2b.series artifact; when
 *  present it must be complete. */
constexpr int reportSchemaVersion = 5;

/** The "schema" discriminator string. */
constexpr const char *reportSchemaName = "dir2b.sweep";

/** Discriminator of correctness-tooling artifacts (model checker,
 *  differential fuzzer, replay tool); same envelope as dir2b.sweep,
 *  different cell vocabulary (see docs/CHECKING.md). */
constexpr const char *checkSchemaName = "dir2b.check";

/** Every AccessCounts field (raw counters) plus the derived ratios. */
Json countsToJson(const AccessCounts &c);

/** A full functional-tier run: counts + measured model parameters +
 *  state occupancies. */
Json runResultToJson(const RunResult &r);

/** A timed run's counters, keyed by the TimedRunResult field list,
 *  then avgLatency and latencyP50/P95/P99: the results of a timed
 *  sweep cell, appended to `cell` (a cell's axes, or empty). */
Json timedResultToJson(const TimedRunResult &r,
                       Json cell = Json::object());

/** Compact distribution summary (samples/mean/min/max/p50/p95/p99) —
 *  the shape sweep cells use for latency objects. */
Json histogramSummaryJson(const Histogram &h);

/** The v3 "dirStore" cell object: tiered directory-storage counters
 *  (budget, per-tier bytes and page counts, tier movement). */
Json dirStoreJson(const DirStoreCounters &c);

/** True when `c` reflects an actual TieredStore-backed directory —
 *  the emit-or-omit test drivers use so non-two-bit cells keep their
 *  pre-v3 shape. */
inline bool
hasDirStore(const DirStoreCounters &c)
{
    return c.ramBudgetBytes || c.hotPages || c.coldPages ||
           c.diskPages;
}

/**
 * Structural validation of a parsed dir2b.sweep / dir2b.check
 * document.  Returns "" when valid, else a one-line description of
 * the first problem.  Shared by tools/check_artifact and the fixture
 * tests; dir2b.trace documents have their own validator in
 * obs/chrome_trace.hh.
 */
std::string validateSweepArtifact(const Json &doc);

/**
 * Assemble a schema-stamped artifact.  `params` and `summary` may be
 * null Json() when a bench has nothing grid-wide to record; `cells`
 * must be an array.
 */
Json makeSweepArtifact(const std::string &bench, Json params,
                       Json cells, Json summary = Json());

/** Same envelope, stamped with the dir2b.check schema — used by the
 *  model checker, the fuzzer and replay_check. */
Json makeCheckArtifact(const std::string &tool, Json params,
                       Json cells, Json summary = Json());

/** Attach the volatile (non-deterministic) block.  Only fields in
 *  here may differ between runs of the same configuration. */
void stampMeta(Json &artifact, unsigned threads, double wallMs,
               bool quick);

/** Serialize to `path`; DIR2B_FATAL on I/O failure. */
void writeArtifact(const std::string &path, const Json &artifact);

/** Parse an artifact file; DIR2B_FATAL on I/O or parse failure. */
Json readArtifact(const std::string &path);

/** Deterministic-payload equality: compare everything except "meta". */
bool sameArtifactPayload(const Json &a, const Json &b);

} // namespace dir2b

#endif // DIR2B_REPORT_REPORT_HH
