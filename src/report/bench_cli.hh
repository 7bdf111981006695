/**
 * @file
 * The common command line of the table benches.
 *
 * Every bench/ grid binary accepts the same knobs:
 *
 *   --threads N   pool width for the cell sweep (default: the
 *                 DIR2B_THREADS environment knob, else all cores)
 *   --json PATH   also emit the machine-readable artifact
 *                 (docs/METRICS.md) next to the text tables
 *   --quick       shrink per-cell reference counts ~10x for smoke
 *                 runs; the *grid* (cell count) is unchanged
 *
 * bench_timed, the one bench with a tiered directory and a telemetry
 * sampler, also accepts --dir-ram-budget BYTES (its two_bit cells),
 * --series-out PATH and --series-interval N; the other benches reject
 * them as unknown options.
 *
 * parseBenchOptions() also wires --threads into
 * setDefaultThreadCount() so nested library code sees the same width.
 */

#ifndef DIR2B_REPORT_BENCH_CLI_HH
#define DIR2B_REPORT_BENCH_CLI_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "report/report.hh"
#include "util/parse_args.hh"

namespace dir2b
{

/** Parsed common bench options. */
struct BenchOptions
{
    unsigned threads = 0; ///< 0 = defaultThreadCount()
    std::string jsonPath; ///< empty = no artifact
    bool quick = false;
    std::uint64_t dirRamBudget = 0; ///< bytes; 0 = unlimited
    std::string seriesPath;           ///< empty = no series artifact
    std::uint64_t seriesInterval = 0; ///< 0 = default when sampling

    /** Telemetry sampling requested (either series flag). */
    bool
    seriesRequested() const
    {
        return seriesInterval != 0 || !seriesPath.empty();
    }

    /** The sample interval to use (default 4096 domain units). */
    std::uint64_t
    resolvedSeriesInterval() const
    {
        return seriesInterval ? seriesInterval : 4096;
    }

    /** Per-cell reference budget: full size, or ~1/10 under --quick
     *  (floored so tiny grids still exercise every code path). */
    std::uint64_t
    scaleRefs(std::uint64_t full) const
    {
        if (!quick)
            return full;
        return std::max<std::uint64_t>(full / 10, 2000);
    }

    /** The pool width the sweep will actually use. */
    unsigned resolvedThreads() const;
};

/**
 * Parse argv (util/parse_args.hh): unknown options and malformed
 * values are fatal; --help prints the usage, with `blurb`, and exits
 * 0.  `timedKnobs` adds bench_timed's three extra flags.
 */
BenchOptions parseBenchOptions(int argc, char **argv,
                               const std::string &blurb,
                               bool timedKnobs = false);

/** Wall-clock timer for the meta block. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    elapsedMs() const
    {
        const auto d = std::chrono::steady_clock::now() - start_;
        return std::chrono::duration<double, std::milli>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * If --json was given: assemble the artifact, stamp the meta block
 * and write it.  No-op otherwise.  `params`/`summary` may be Json().
 */
void emitArtifact(const BenchOptions &opts, const std::string &bench,
                  Json params, Json cells, Json summary,
                  const WallTimer &timer);

} // namespace dir2b

#endif // DIR2B_REPORT_BENCH_CLI_HH
