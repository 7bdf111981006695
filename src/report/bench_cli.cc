#include "report/bench_cli.hh"

#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace dir2b
{

unsigned
BenchOptions::resolvedThreads() const
{
    return threads ? threads : defaultThreadCount();
}

BenchOptions
parseBenchOptions(int argc, char **argv, const std::string &bench,
                  const std::string &blurb)
{
    BenchOptions o;
    auto usage = [&]() {
        std::printf(
            "%s\n\n"
            "usage: %s [--threads N] [--json PATH] [--quick] "
            "[--dir-ram-budget BYTES]\n"
            "  --threads N   sweep-pool width (default: DIR2B_THREADS\n"
            "                env var, else all hardware threads)\n"
            "  --json PATH   also write the machine-readable artifact\n"
            "                (schema: docs/METRICS.md)\n"
            "  --quick       ~10x fewer references per cell; same grid\n"
            "  --dir-ram-budget BYTES\n"
            "                directory RAM budget per run (K/M/G\n"
            "                suffixes; 0 = unlimited); statistics are\n"
            "                bit-identical at any budget\n"
            "  --series-out PATH\n"
            "                record a dir2b.series telemetry artifact\n"
            "                from one designated cell (timed benches)\n"
            "  --series-interval N\n"
            "                sample every N ticks (k/m/g suffixes;\n"
            "                default 4096 with --series-out)\n",
            blurb.c_str(), bench.c_str());
    };
    auto need = [&](int &i) -> const char * {
        if (++i >= argc)
            DIR2B_FATAL("missing value for ", argv[i - 1]);
        return argv[i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads") {
            const long v = std::atol(need(i));
            if (v <= 0)
                DIR2B_FATAL("--threads wants a positive integer");
            o.threads = static_cast<unsigned>(v);
        } else if (arg == "--json") {
            o.jsonPath = need(i);
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--dir-ram-budget") {
            o.dirRamBudget = parseByteSize(need(i),
                                           "--dir-ram-budget");
        } else if (arg == "--series-out") {
            o.seriesPath = need(i);
        } else if (arg == "--series-interval") {
            o.seriesInterval = parseInterval(need(i),
                                             "--series-interval");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            DIR2B_FATAL("unknown option '", arg, "'");
        }
    }
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
    std::printf("wrote %s (%zu cells)\n", opts.jsonPath.c_str(),
                artifact.at("cells").size());
}

} // namespace dir2b
