#include "report/bench_cli.hh"

#include <cstdio>

#include "util/parallel.hh"

namespace dir2b
{

unsigned
BenchOptions::resolvedThreads() const
{
    return threads ? threads : defaultThreadCount();
}

BenchOptions
parseBenchOptions(int argc, char **argv, const std::string &blurb,
                  bool timedKnobs)
{
    BenchOptions o;
    CliSpec spec{
        "[options]",
        blurb,
        {
            {"--threads", arg::count(o.threads, 1),
             "sweep-pool width (default: DIR2B_THREADS env var, else all "
             "hardware threads)"},
            {"--json", arg::text(o.jsonPath, "PATH"),
             "also write the machine-readable artifact (schema: "
             "docs/METRICS.md)"},
            {"--quick", arg::on(o.quick),
             "~10x fewer references per cell; same grid"},
        },
    };
    if (timedKnobs) {
        spec.options.push_back(
            {"--dir-ram-budget", arg::byteSize(o.dirRamBudget),
             "directory RAM budget per two_bit cell (K/M/G suffixes; 0 = "
             "unlimited); statistics are bit-identical at any budget.  "
             "The full_map and yen_fu cells keep no tiered directory and "
             "run unbudgeted"});
        spec.options.push_back(
            {"--series-out", arg::text(o.seriesPath, "PATH"),
             "record a dir2b.series telemetry artifact from the first "
             "cell"});
        spec.options.push_back(
            {"--series-interval", arg::interval(o.seriesInterval),
             "sample every N ticks (k/m/g suffixes; default 4096 with "
             "--series-out)"});
    }
    parseArgs(argc, argv, spec);
    if (o.threads)
        setDefaultThreadCount(o.threads);
    return o;
}

void
emitArtifact(const BenchOptions &opts, const std::string &bench,
             Json params, Json cells, Json summary,
             const WallTimer &timer)
{
    if (opts.jsonPath.empty())
        return;
    Json artifact = makeSweepArtifact(bench, std::move(params),
                                      std::move(cells),
                                      std::move(summary));
    stampMeta(artifact, opts.resolvedThreads(), timer.elapsedMs(),
              opts.quick);
    writeArtifact(opts.jsonPath, artifact);
    const std::size_t n = artifact.at("cells").size();
    std::printf("wrote %s (%zu cell%s)\n", opts.jsonPath.c_str(), n,
                n == 1 ? "" : "s");
}

} // namespace dir2b
