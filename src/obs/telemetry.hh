/**
 * @file
 * Time-series telemetry: metric registry, deterministic sampler and
 * the `dir2b.series` artifact schema.
 *
 * Every statistic the simulator reports elsewhere is an end-of-run
 * aggregate; this layer adds the time axis.  Components register
 * named POD counters and gauges in a MetricRegistry (borrowed
 * pointers — reading a metric never allocates and never touches
 * simulation state), and a TelemetrySampler snapshots the whole
 * registry at deterministic boundaries:
 *
 *  - functional tier: every N completed references;
 *  - timed tier: every N ticks, with the engine flushing boundaries
 *    only when the simulation state is exact for them: it runs the
 *    kernel in boundary-clamped chunks, so a boundary T means "every
 *    event with tick < T has executed, none at or after T has".
 *
 * Snapshots accumulate as flat rows of uint64 and serialize to a
 * versioned `dir2b.series` JSON artifact (schema below, validated by
 * tools/check_artifact, documented in docs/METRICS.md).  The artifact
 * deliberately has NO `meta` block: the whole document is a pure
 * function of the configuration, so determinism can be checked with
 * a plain byte compare (tests/test_telemetry.cc pins its digest).
 *
 * Snapshots can additionally fan out to:
 *  - a TraceRecorder (attachRecorder), rendering every metric as a
 *    Perfetto counter track on the "metrics" thread so spans and
 *    metrics line up on one timeline (obs/chrome_trace.hh);
 *  - a ProgressMeter (attachProgress), a wall-clock-throttled live
 *    stderr line (refs/s, ETA, current interval rate) for long
 *    interactive runs.  Wall clock feeds *display only* — nothing it
 *    reads or prints flows back into simulation or artifacts.
 *
 * Determinism contract (tests/test_telemetry.cc proves it): attaching
 * a sampler never perturbs simulation statistics — all golden digests
 * are bit-identical with sampling on or off, on both tiers.
 */

#ifndef DIR2B_OBS_TELEMETRY_HH
#define DIR2B_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "report/json.hh"
#include "sim/stats.hh"

namespace dir2b
{

class TraceRecorder;
class ProgressMeter;

/**
 * Named read-only views of component statistics.  Registration (setup
 * time) allocates; read() does not.  Two source shapes cover every
 * component without adapters:
 *
 *  - a plain uint64 word (proto/counts.hh fields),
 *  - a capture-less probe function + context pointer + argument, for
 *    values that need aggregation across components at read time;
 *    the argument is typically an index into a stats field list
 *    (addStatFields).
 *
 * Names must be unique (fatal otherwise) and live in a deque so the
 * c_str() pointers handed to TraceRecorder stay stable forever.
 */
class MetricRegistry
{
  public:
    using Probe = std::uint64_t (*)(const void *ctx, std::size_t arg);

    static constexpr std::size_t npos = ~std::size_t(0);

    std::size_t add(std::string name, MetricKind kind,
                    const std::uint64_t *word);
    std::size_t add(std::string name, MetricKind kind, Probe fn,
                    const void *ctx, std::size_t arg = 0);

    std::size_t size() const { return metrics_.size(); }
    const char *name(std::size_t i) const { return metrics_[i].name; }
    MetricKind kind(std::size_t i) const { return metrics_[i].kind; }

    /** Index of `name`, or npos.  Linear; cache the result. */
    std::size_t find(const char *name) const;

    /** Current value of metric i.  Never allocates. */
    std::uint64_t read(std::size_t i) const;

  private:
    /** A word source when fn is null, else a probe. */
    struct Metric
    {
        const char *name;
        const void *ptr;
        Probe fn;
        std::size_t arg;
        MetricKind kind;
    };

    std::size_t push(std::string name, MetricKind kind, const void *ptr,
                     Probe fn, std::size_t arg);

    std::deque<std::string> names_; ///< stable c_str storage
    std::vector<Metric> metrics_;
};

/**
 * Register every field of a stats field list as `statName(group,
 * field)`, with the field's kind, read by probe(ctx, i) for the i-th
 * field.  The series order is the list order.
 */
template <class S, class V, std::size_t N>
void
addStatFields(MetricRegistry &reg, std::string_view group,
              const StatField<S, V> (&fields)[N],
              MetricRegistry::Probe probe, const void *ctx)
{
    for (std::size_t i = 0; i < N; ++i)
        reg.add(statName(group, fields[i].name), fields[i].kind, probe,
                ctx, i);
}

/** Sample domain: what the boundary coordinate t counts. */
enum class SeriesDomain : std::uint8_t
{
    Refs,  ///< completed references (functional tier)
    Ticks, ///< simulated ticks (timed tier)
};

/**
 * Deterministic interval sampler over a MetricRegistry it owns.
 *
 * Boundaries sit at interval, 2*interval, ... in the domain
 * coordinate.  The driving engine calls flushUpTo(t) whenever it can
 * guarantee the registry is exact for every boundary <= t, and clamps
 * its own execution to nextBoundary() so it never runs past an
 * unsampled boundary.  finish(finalT) flushes the remaining
 * boundaries and emits the final partial interval exactly once (a
 * run shorter than one interval still yields one sample).
 *
 * Sample rows are flat uint64 (t, v0..vn-1).  The only allocation on
 * the sampling path is amortised row-storage growth; registry reads
 * and sink fan-out never allocate.
 */
class TelemetrySampler
{
  public:
    TelemetrySampler(SeriesDomain domain, std::uint64_t interval);

    /** The registry components populate (setup time, before the
     *  engine runs). */
    MetricRegistry &registry() { return reg_; }
    const MetricRegistry &registry() const { return reg_; }

    SeriesDomain domain() const { return domain_; }
    std::uint64_t interval() const { return interval_; }

    /** Mirror every sample into `rec` as counter events on a
     *  dedicated "metrics" track (registers the track now — call
     *  before sampling starts).  Several recorders may attach. */
    void attachRecorder(TraceRecorder *rec);

    /** Forward samples to a live progress line (display only). */
    void attachProgress(ProgressMeter *p) { progress_ = p; }

    // ------------------------------------------------------------------
    // Engine interface.
    // ------------------------------------------------------------------

    /** Emit every not-yet-emitted boundary <= t.  The caller
     *  guarantees registry state is exact for each of them. */
    void flushUpTo(std::uint64_t t);

    /** The next unsampled boundary (saturates at 2^64-1 instead of
     *  wrapping); engines clamp their horizon to it. */
    std::uint64_t nextBoundary() const { return next_; }

    /** Flush boundaries <= finalT, then emit one final sample at
     *  finalT unless a boundary already landed exactly there.
     *  Idempotent; later flushUpTo() calls become no-ops. */
    void finish(std::uint64_t finalT);

    // ------------------------------------------------------------------
    // Results (artifact assembly, progress, tests).
    // ------------------------------------------------------------------

    std::size_t samples() const { return samples_; }
    std::uint64_t sampleT(std::size_t s) const;
    std::uint64_t sampleValue(std::size_t s, std::size_t metric) const;

  private:
    void emit(std::uint64_t t);

    MetricRegistry reg_;
    SeriesDomain domain_;
    std::uint64_t interval_;
    std::uint64_t next_; ///< next boundary; saturating
    std::uint64_t lastT_ = 0;
    std::size_t samples_ = 0;
    bool finished_ = false;
    std::vector<std::uint64_t> rows_; ///< samples_ x (1 + metrics)

    struct RecorderSink
    {
        TraceRecorder *rec;
        std::uint32_t track;
    };
    std::vector<RecorderSink> recorders_;
    ProgressMeter *progress_ = nullptr;
};

/**
 * Live progress line on stderr for long interactive runs:
 *
 *   12.3k/40.0k refs  30.9%  1.2M refs/s  ETA 0.2s  [+2.0k/interval]
 *
 * Redrawn in place (\r), throttled to ~5 Hz of wall clock so terminal
 * I/O never becomes the bottleneck, finished with a newline.  Reads
 * the "refs.completed" metric when the registry has one (timed tier),
 * else the domain coordinate itself (functional tier).  Display only:
 * consulted wall time never reaches simulation state or artifacts.
 * Benches never construct one, so their hot loops carry no progress
 * code at all.
 */
class ProgressMeter
{
  public:
    /** @param totalRefs expected reference total (0 = unknown: no
     *  percentage or ETA, rates only) */
    explicit ProgressMeter(std::uint64_t totalRefs);

    /** Called by the sampler after each emitted sample. */
    void onSample(const TelemetrySampler &s);

    /** Erase-or-keep the line: prints the terminating newline if
     *  anything was drawn. */
    void finish();

  private:
    std::uint64_t total_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point lastDraw_;
    std::size_t refsIdx_ = MetricRegistry::npos;
    bool refsIdxResolved_ = false;
    std::uint64_t prevDone_ = 0;
    bool drawn_ = false;
};

// ----------------------------------------------------------------------
// The dir2b.series artifact.
// ----------------------------------------------------------------------

/** Discriminator and layout version of series artifacts:
 *
 *   {
 *     "schema": "dir2b.series",
 *     "schema_version": 1,
 *     "bench": "<producer>",
 *     "params": { ...run configuration (deterministic subset)... },
 *     "series": {
 *       "domain": "refs" | "ticks",
 *       "interval": N,
 *       "metrics": [ { "name": "...", "kind": "counter"|"gauge" }, .. ],
 *       "samples": [ [t, v0, v1, ...], ... ]
 *     },
 *     "summary": { "samples": N, "finalT": T }
 *   }
 *
 * No "meta" block, by design: the document is a pure function of the
 * configuration (params must therefore exclude host knobs like thread
 * counts), so determinism checks are a byte compare. */
constexpr const char *seriesSchemaName = "dir2b.series";
constexpr int seriesSchemaVersion = 1;

/** Assemble the artifact from a finished sampler.  `params` may be
 *  Json() for none. */
Json makeSeriesArtifact(const std::string &bench, Json params,
                        const TelemetrySampler &s);

/** Structural validation of a parsed dir2b.series document.  Returns
 *  "" when valid, else a one-line description of the first problem.
 *  Shared by tools/check_artifact and the fixture tests. */
std::string validateSeriesArtifact(const Json &doc);

/** The compact `series` provenance object a dir2b.sweep cell carries
 *  when its run was sampled (schema v5, docs/METRICS.md). */
Json seriesProvenanceJson(const TelemetrySampler &s);

} // namespace dir2b

#endif // DIR2B_OBS_TELEMETRY_HH
