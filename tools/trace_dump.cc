/**
 * @file
 * Run a timed workload with the trace recorder attached and emit a
 * dir2b.trace artifact (docs/TRACING.md) plus a per-phase latency
 * summary on stdout.
 *
 *   trace_dump [--out PATH] [--protocol P] [--procs N]
 *              [--modules M] [--refs N] [--seed S] [--q Q]
 *              [--net ideal|crossbar|bus] [--per-block] [--snoop]
 *              [--capacity N] [--debug]
 *
 * The artifact is simultaneously a Chrome trace_event file: load it
 * straight into Perfetto (https://ui.perfetto.dev) or chrome://tracing
 * to see one track per cache and controller, phase spans (transaction,
 * await_grant, await_data, service, supply, await_acks, await_put) and
 * an instant per Table 3-1 command on the network track.
 *
 * With --debug, DIR2B_DEBUG protocol chatter is additionally routed
 * into a "log" track as instant events, so the textual story and the
 * timeline are one artifact.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/telemetry.hh"
#include "obs/trace_recorder.hh"
#include "report/bench_cli.hh"
#include "report/report.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "util/logging.hh"
#include "util/parse_args.hh"

namespace
{

using namespace dir2b;

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "trace_dump: %s\n", msg.c_str());
    std::exit(1);
}

/** The largest --capacity: a 16 Mi-event ring is about 1 GiB. */
constexpr std::size_t maxCapacity = std::size_t(1) << 24;

/** Per-phase latency summary (merged across components). */
struct PhaseRow
{
    const char *name;
    Histogram h;
};

std::vector<PhaseRow>
collectPhases(const TimedSystem &sys)
{
    return {
        {"latency", sys.mergedCacheHistogram(&CacheCtrlStats::latency)},
        {"grant_wait",
         sys.mergedCacheHistogram(&CacheCtrlStats::grantWait)},
        {"data_wait",
         sys.mergedCacheHistogram(&CacheCtrlStats::dataWait)},
        {"queue_wait", sys.mergedDirHistogram(&DirCtrlStats::queueWait)},
        {"ack_wait", sys.mergedDirHistogram(&DirCtrlStats::ackWait)},
        {"put_wait", sys.mergedDirHistogram(&DirCtrlStats::putWait)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "dir2b.trace";
    std::string protoName = "tb";
    std::string netName = "crossbar";
    unsigned procs = 4;
    unsigned modules = 2;
    std::uint64_t refs = 2000;
    std::uint64_t seed = 31;
    double q = 0.10;
    bool perBlock = false;
    bool snoop = false;
    bool debug = false;
    std::size_t capacity = std::size_t(1) << 18;
    std::string seriesPath;
    std::uint64_t seriesInterval = 0;

    parseArgs(
        argc, argv,
        {"[options]",
         "Run a timed workload with tracing and write a dir2b.trace "
         "artifact (Perfetto-loadable; see docs/TRACING.md).",
         {
             {"--out", arg::text(outPath, "PATH"),
              "artifact path (default: dir2b.trace)"},
             {"--protocol", arg::text(protoName, "P"),
              "two_bit | full_map | yen_fu, or tb | fm | yf (default: "
              "tb)"},
             {"--procs", arg::count(procs, 1, invalidProc - 1),
              "processor-cache pairs (default: 4)"},
             {"--modules", arg::count(modules, 1),
              "controller-memory modules (default: 2)"},
             {"--refs", arg::count(refs),
              "references per processor (default: 2000)"},
             {"--seed", arg::count(seed),
              "synthetic workload seed (default: 31)"},
             {"--q", arg::real(q, 0.0, 1.0),
              "shared-reference probability (default: 0.10)"},
             {"--net", arg::text(netName, "KIND"),
              "ideal | crossbar | bus (default: crossbar)"},
             {"--per-block", arg::on(perBlock),
              "per-block-concurrent controllers (Sec. 3.2.5 option 2)"},
             {"--snoop", arg::on(snoop),
              "duplicate cache directories (Sec. 4.4a)"},
             {"--capacity", arg::count(capacity, 1, maxCapacity),
              "recorder ring capacity in events, at most 16777216 "
              "(default: 262144)"},
             {"--series-interval", arg::interval(seriesInterval),
              "sample the telemetry registry every N ticks (k/m/g "
              "suffixes) and render every metric as a Perfetto counter "
              "track in the artifact"},
             {"--series-out", arg::text(seriesPath, "PATH"),
              "additionally write the samples as a dir2b.series artifact "
              "(default interval 4096 if --series-interval is absent)"},
             {"--debug", arg::on(debug),
              "route DIR2B_DEBUG messages into a 'log' track"},
         }});

    TimedConfig cfg;
    if (const auto p = parseEnumName(timedProtoNames, protoName))
        cfg.protocol = *p;
    else
        fail("unknown --protocol '" + protoName +
             "' (two_bit|full_map|yen_fu or tb|fm|yf)");
    if (const auto k = parseEnumName(netKindNames, netName))
        cfg.network = *k;
    else
        fail("unknown --net '" + netName + "' (ideal|crossbar|bus)");
    cfg.numProcs = procs;
    cfg.numModules = modules;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.perBlockConcurrency = perBlock;
    cfg.snoopFilter = snoop;

    if (!traceCompiledIn)
        std::fprintf(stderr,
                     "trace_dump: warning: built with -DDIR2B_TRACING="
                     "OFF — the trace will contain no events\n");

    TraceRecorder rec(capacity);

    // The telemetry sampler mirrors every metric into a "metrics"
    // counter track of the same recorder.
    std::unique_ptr<TelemetrySampler> sampler;
    if (seriesInterval || !seriesPath.empty()) {
        sampler = std::make_unique<TelemetrySampler>(
            SeriesDomain::Ticks,
            seriesInterval ? seriesInterval : 4096);
        sampler->attachRecorder(&rec);
    }

    const WallTimer timer;

    auto stream = std::make_shared<SyntheticStream>(
        timedSyntheticConfig(procs, q, seed));
    auto src = [stream](ProcId p) -> std::optional<MemRef> {
        return stream->nextFor(p);
    };

    cfg.sampler = sampler.get();
    cfg.tracer = &rec;
    TimedSystem sys(cfg);
    if (debug) {
        const std::uint32_t logTrk = rec.addTrack("log");
        setDebugSink([&rec, &sys, logTrk](const std::string &msg) {
            rec.note(sys.now(), logTrk, msg);
        });
    }
    const TimedRunResult r = sys.run(src, refs);
    setDebugSink(nullptr);
    const std::vector<PhaseRow> phases = collectPhases(sys);

    std::printf("trace_dump: %s n=%u m=%u q=%.2f net=%s refs=%llu "
                "-> %llu ticks, %llu messages\n\n",
                protoName.c_str(), procs, modules, q, netName.c_str(),
                static_cast<unsigned long long>(refs),
                static_cast<unsigned long long>(r.finalTick),
                static_cast<unsigned long long>(r.netMessages));
    std::printf("%-12s %10s %10s %6s %6s %6s %6s\n", "phase",
                "samples", "mean", "min", "p50", "p95", "p99");
    for (const PhaseRow &p : phases) {
        std::printf("%-12s %10llu %10.2f %6llu %6llu %6llu %6llu\n",
                    p.name,
                    static_cast<unsigned long long>(p.h.samples()),
                    p.h.mean(),
                    static_cast<unsigned long long>(p.h.min()),
                    static_cast<unsigned long long>(p.h.p50()),
                    static_cast<unsigned long long>(p.h.p95()),
                    static_cast<unsigned long long>(p.h.p99()));
    }
    std::printf("\nrecorder: %llu events recorded, %zu held, %llu "
                "dropped (ring wrap), %zu tracks\n",
                static_cast<unsigned long long>(rec.recorded()),
                rec.size(),
                static_cast<unsigned long long>(rec.dropped()),
                rec.tracks().size());

    // ---- artifact ----
    Json params = Json::object();
    params.set("protocol", protoName);
    params.set("procs", procs);
    params.set("modules", modules);
    params.set("refs", static_cast<unsigned long long>(refs));
    params.set("seed", static_cast<unsigned long long>(seed));
    params.set("q", q);
    params.set("net", netName);
    params.set("perBlock", perBlock);
    params.set("snoop", snoop);
    params.set("capacity",
               static_cast<unsigned long long>(capacity));

    Json phaseJson = Json::object();
    for (const PhaseRow &p : phases)
        phaseJson.set(p.name, histogramSummaryJson(p.h));
    Json summary = Json::object();
    summary.set("finalTick",
                static_cast<unsigned long long>(r.finalTick));
    summary.set("refsCompleted",
                static_cast<unsigned long long>(r.refsCompleted));
    summary.set("netMessages",
                static_cast<unsigned long long>(r.netMessages));
    summary.set("eventsRecorded",
                static_cast<unsigned long long>(rec.recorded()));
    summary.set("eventsDropped",
                static_cast<unsigned long long>(rec.dropped()));
    summary.set("phases", std::move(phaseJson));

    Json meta = Json::object();
    meta.set("wall_ms", timer.elapsedMs());
    meta.set("threads", 1);
    meta.set("quick", false);

    std::ofstream out(outPath);
    if (!out)
        fail("cannot open '" + outPath + "' for writing");
    writeTraceArtifact(out, rec, "trace_dump", params, summary, meta);
    out << "\n";
    if (!out)
        fail("write to '" + outPath + "' failed");
    std::printf("wrote %s (load it at https://ui.perfetto.dev)\n",
                outPath.c_str());

    if (sampler && !seriesPath.empty()) {
        // Deterministic run configuration only — no capacity — so the
        // artifact is a pure function of the simulated run.
        Json sp = Json::object();
        sp.set("protocol", protoName);
        sp.set("procs", procs);
        sp.set("modules", modules);
        sp.set("refs", static_cast<unsigned long long>(refs));
        sp.set("seed", static_cast<unsigned long long>(seed));
        sp.set("q", q);
        sp.set("net", netName);
        sp.set("perBlock", perBlock);
        sp.set("snoop", snoop);
        writeArtifact(seriesPath,
                      makeSeriesArtifact("trace_dump", std::move(sp),
                                         *sampler));
        std::printf("wrote %s (%zu samples)\n", seriesPath.c_str(),
                    sampler->samples());
    }
    return 0;
}
