/**
 * @file
 * dir2bsim — command-line driver for the dir2b simulator.
 *
 * Runs any of the nine protocols over a synthetic workload or a
 * recorded trace and dumps the full counter set; can also record
 * traces for replay, sweep a processor-count grid in parallel, and
 * export machine-readable JSON artifacts (docs/METRICS.md).  This is
 * the tool a user reaches for before writing code against the
 * library.
 *
 * Usage examples:
 *
 *   dir2bsim --protocol two_bit --procs 8 --refs 1000000
 *   dir2bsim --protocol full_map --q 0.1 --w 0.4 --refs 500000
 *   dir2bsim --protocol two_bit_tb --tb 64 --refs 200000
 *   dir2bsim --protocol two_bit --sweep-procs 2,4,8,16 --threads 4
 *   dir2bsim --protocol two_bit --json run.json
 *   dir2bsim --record /tmp/t.trc --refs 10000
 *   dir2bsim --trace /tmp/t.trc --protocol classical
 *   dir2bsim --timed --protocol tb --procs 8 --refs 20000
 *   dir2bsim --list-protocols
 *
 * --timed switches from the functional tier to the discrete-event
 * tier (latencies, contention, the coherence oracle on every
 * completion); there --refs counts references PER PROCESSOR.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "proto/protocol_factory.hh"
#include "report/bench_cli.hh"
#include "report/report.hh"
#include "system/func_system.hh"
#include "system/func_telemetry.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/parse_args.hh"

using namespace dir2b;

namespace
{

struct Options
{
    ModeSet mode = 0; ///< one of the mode bits below
    std::string protocol = "two_bit";
    std::string tracePath;
    std::string recordPath;
    std::string traceInPath;
    std::string traceOutPath;
    std::uint64_t traceBufferBytes = 0; ///< 0 = format default
    bool procsSet = false;
    bool refsSet = false;
    std::string jsonPath;
    std::string seriesPath;
    std::uint64_t seriesInterval = 0; ///< 0 = sampling off
    bool progress = false;
    std::vector<ProcId> sweepProcs;
    unsigned threads = 0;
    ProcId procs = 4;
    std::size_t sets = 32;
    std::size_t ways = 4;
    ModuleId modules = 4;
    std::size_t tbCapacity = 0;
    std::size_t biasCapacity = 0;
    double q = 0.05;
    double w = 0.2;
    std::size_t sharedBlocks = 16;
    double locality = 0.9;
    std::uint64_t refs = 100000;
    std::uint64_t seed = 1;
    bool noOracle = false;
    bool invariants = false;
    bool analyze = false;
    bool timed = false;
    std::uint64_t dirRamBudget = 0;
    std::uint64_t spaceBlocks = 0;
    std::uint64_t think = 1;
};

/** The modes, one bit each in the order of parse()'s mode list: when
 *  several mode flags are given the first wins, and the last mode is
 *  the default. */
enum : ModeSet
{
    TraceOut = 1u << 0,
    Timed = 1u << 1,
    Sweep = 1u << 2,
    Analyze = 1u << 3,
    Record = 1u << 4,
    Run = 1u << 5,
};

/** Modes that simulate: one functional run, a sweep, a timed run. */
constexpr ModeSet Simulate = Run | Sweep | Timed;

Options
parse(int argc, char **argv)
{
    Options o;
    bool listProtocols = false;
    CliSpec spec{
        "[options]",
        "Run a coherence scheme over a synthetic workload or a recorded "
        "trace and print its counters.  --trace-out, --timed, "
        "--sweep-procs, --analyze and --record each select a mode (the "
        "first given, in that order, wins); without them dir2bsim makes "
        "one functional run.  A flag given in a mode it does not apply "
        "to is an error.",
        {
            {"--protocol", arg::text(o.protocol, "NAME"),
             "scheme to run (--list-protocols); --timed knows "
             "tb|fm|yf",
             Simulate},
            {"--procs", arg::count(o.procs, 0, invalidProc - 1),
             "processor-cache pairs (default 4)", ~Sweep},
            {"--sets", arg::count(o.sets), "cache sets (default 32)",
             Simulate},
            {"--ways", arg::count(o.ways), "cache ways (default 4)",
             Simulate},
            {"--modules", arg::count(o.modules),
             "memory modules (default 4)", Simulate},
            {"--tb", arg::count(o.tbCapacity),
             "translation-buffer entries per module (two_bit_tb)",
             Run | Sweep},
            {"--bias", arg::count(o.biasCapacity),
             "BIAS filter entries (classical)", Run | Sweep},
            {"--q", arg::real(o.q, 0.0, 1.0),
             "sharing level: probability a reference is to a shared "
             "block (default 0.05)"},
            {"--w", arg::real(o.w, 0.0, 1.0),
             "write fraction of shared references (default 0.2)"},
            {"--shared", arg::count(o.sharedBlocks),
             "number of shared blocks (default 16)"},
            {"--locality", arg::real(o.locality, 0.0, 1.0),
             "shared re-reference probability (default 0.9)"},
            {"--refs", arg::count(o.refs),
             "references to simulate (per processor with --timed)"},
            {"--seed", arg::count(o.seed), "workload seed (default 1)"},
            {"--space-blocks", arg::count(o.spaceBlocks),
             "hash-scatter the synthetic working set over an N-block "
             "address space (0 = compact layout): huge sparse "
             "directories"},
            {"--trace", arg::text(o.tracePath, "FILE"),
             "replay a recorded text trace",
             Run | Analyze | Record | TraceOut},
            {"--record", arg::text(o.recordPath, "FILE"),
             "mode: record the workload as a text trace", Record},
            {"--trace-in", arg::text(o.traceInPath, "FILE"),
             "mmap-replay a binary trace (docs/TRACES.md); results are "
             "bit-identical to the run that recorded it",
             Run | Analyze | Timed},
            {"--trace-out", arg::text(o.traceOutPath, "FILE"),
             "mode: record the workload as a binary trace", TraceOut},
            {"--trace-buffer", arg::byteSize(o.traceBufferBytes),
             "writer block size for --trace-out (default 1M = 64Ki "
             "records per block)",
             TraceOut},
            {"--json", arg::text(o.jsonPath, "FILE"),
             "export results as a JSON artifact (docs/METRICS.md)",
             Simulate},
            {"--series-out", arg::text(o.seriesPath, "FILE"),
             "record a dir2b.series time-series artifact "
             "(docs/METRICS.md); sampling never changes results",
             Run | Timed},
            {"--series-interval", arg::interval(o.seriesInterval),
             "sample every N refs, or N ticks with --timed (default "
             "4096)",
             Run | Timed},
            {"--progress", arg::on(o.progress),
             "live progress line on stderr (refs/s, ETA); implies "
             "sampling",
             Run | Timed},
            {"--sweep-procs", arg::counts(o.sweepProcs, 1, invalidProc - 1),
             "mode: one functional run per comma-separated processor "
             "count (e.g. 2,4,8), cells in parallel",
             Sweep},
            {"--threads", arg::count(o.threads, 1),
             "--sweep-procs pool width (default: the DIR2B_THREADS env "
             "var, else all cores)",
             Sweep},
            {"--no-oracle", arg::on(o.noOracle),
             "skip coherence checking (faster)", Run | Sweep},
            {"--invariants", arg::on(o.invariants),
             "deep-check structures every 1k refs", Run | Sweep},
            {"--analyze", arg::on(o.analyze),
             "mode: print trace statistics, don't simulate", Analyze},
            {"--timed", arg::on(o.timed),
             "mode: run the discrete-event tier (tb|fm|yf), which always "
             "checks coherence",
             Timed},
            {"--think", arg::count(o.think),
             "processor think time between references (default 1)",
             Timed},
            {"--dir-ram-budget", arg::byteSize(o.dirRamBudget),
             "total directory RAM budget (K/M/G; 0 = unlimited): cold "
             "pages compress and spill to disk past it, results stay "
             "bit-identical.  Schemes with no tiered directory "
             "(classical, --timed fm, ...) refuse it",
             Simulate},
            {"--list-protocols", arg::on(listProtocols),
             "print registered protocol names and exit"},
        },
        {{"--trace-out"},
         {"--timed"},
         {"--sweep-procs"},
         {"--analyze"},
         {"--record"},
         {"a functional run"}},
    };
    const ParsedArgs args = parseArgs(argc, argv, spec);
    if (listProtocols) {
        for (const auto &name : protocolNames())
            std::printf("%s\n", name.c_str());
        std::exit(0);
    }
    o.mode = ModeSet{1} << args.mode;
    o.procsSet = args.has("--procs");
    o.refsSet = args.has("--refs");
    if (!o.tracePath.empty() && !o.traceInPath.empty())
        DIR2B_FATAL("--trace-in excludes --trace");
    // A text trace fixes the workload, so the synthetic knobs would be
    // ignored.  (--trace-in keeps them: replays echo the recording's
    // knobs into their params.)
    if (!o.tracePath.empty())
        for (const char *knob : {"--q", "--w", "--shared", "--locality",
                                 "--seed", "--space-blocks"})
            if (args.has(knob))
                DIR2B_FATAL(knob, " does not apply to --trace: the trace "
                                  "fixes the workload");
    if (o.mode == Analyze && !o.traceInPath.empty() && o.procsSet)
        DIR2B_FATAL("--procs does not apply to --analyze --trace-in: the "
                    "trace header fixes it");
    if (o.threads)
        setDefaultThreadCount(o.threads);
    return o;
}

std::unique_ptr<RefStream>
makeStream(const Options &o, ProcId procs)
{
    if (!o.tracePath.empty()) {
        std::ifstream in(o.tracePath);
        if (!in)
            DIR2B_FATAL("cannot open trace '", o.tracePath, "'");
        return std::make_unique<VectorStream>(readTrace(in));
    }
    SyntheticConfig cfg;
    cfg.numProcs = procs;
    cfg.q = o.q;
    cfg.w = o.w;
    cfg.sharedBlocks = o.sharedBlocks;
    cfg.sharedLocality = o.locality;
    cfg.privateBlocks = 96;
    cfg.hotBlocks = 24;
    cfg.seed = o.seed;
    cfg.spaceBlocks = o.spaceBlocks;
    return std::make_unique<SyntheticStream>(cfg);
}

ProtoConfig
protoConfig(const Options &o, ProcId procs)
{
    ProtoConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheGeom.sets = o.sets;
    cfg.cacheGeom.ways = o.ways;
    cfg.numModules = o.modules;
    cfg.tbCapacity = o.tbCapacity;
    cfg.biasCapacity = o.biasCapacity;
    cfg.nonCacheableBase = sharedRegionBase;
    cfg.dirRamBudget = o.dirRamBudget;
    return cfg;
}

/** The --protocol scheme at `procs` processors.  A --dir-ram-budget
 *  that the scheme has no tiered directory to apply to is an error,
 *  not a silent no-op. */
std::unique_ptr<Protocol>
makeScheme(const Options &o, ProcId procs)
{
    auto proto = makeProtocol(o.protocol, protoConfig(o, procs));
    if (o.dirRamBudget > 0 && proto->dirStoreCounters().ramBudgetBytes == 0)
        DIR2B_FATAL("--dir-ram-budget: protocol '", o.protocol,
                    "' keeps no tiered directory to budget");
    return proto;
}

Json
configJson(const Options &o)
{
    Json p = Json::object();
    p.set("protocol", o.protocol);
    p.set("sets", static_cast<unsigned long long>(o.sets));
    p.set("ways", static_cast<unsigned long long>(o.ways));
    p.set("modules", static_cast<unsigned>(o.modules));
    p.set("q", o.q);
    p.set("w", o.w);
    p.set("sharedBlocks",
          static_cast<unsigned long long>(o.sharedBlocks));
    p.set("locality", o.locality);
    p.set("refs", static_cast<unsigned long long>(o.refs));
    p.set("seed", static_cast<unsigned long long>(o.seed));
    p.set("dirRamBudget",
          static_cast<unsigned long long>(o.dirRamBudget));
    p.set("spaceBlocks",
          static_cast<unsigned long long>(o.spaceBlocks));
    return p;
}

/** Sampling is on when any series flag is given. */
bool
samplingRequested(const Options &o)
{
    return o.seriesInterval || !o.seriesPath.empty() || o.progress;
}

/** The sample interval, defaulting to 4096 domain units. */
std::uint64_t
effectiveInterval(const Options &o)
{
    return o.seriesInterval ? o.seriesInterval : 4096;
}

/**
 * Series params: the deterministic run configuration only.  Host
 * knobs (threads) are deliberately excluded so the artifact is a pure
 * function of the run configuration (docs/METRICS.md).
 */
Json
seriesParams(const Options &o)
{
    Json p = configJson(o);
    if (o.timed) {
        p.set("timed", true);
        p.set("think", static_cast<unsigned long long>(o.think));
    }
    return p;
}

void
writeSeries(const Options &o, const TelemetrySampler &s)
{
    if (o.seriesPath.empty())
        return;
    writeArtifact(o.seriesPath,
                  makeSeriesArtifact("dir2bsim", seriesParams(o), s));
    std::printf("wrote %s (%zu samples)\n", o.seriesPath.c_str(),
                s.samples());
}

/** The v4 "traceReplay" provenance object for a replayed cell. */
Json
traceReplayJson(const TraceReader &reader, bool batched)
{
    Json t = Json::object();
    t.set("records",
          static_cast<unsigned long long>(reader.totalRecords()));
    t.set("blocks",
          static_cast<unsigned long long>(reader.numBlocks()));
    t.set("blockRecords", reader.header().blockRecords);
    t.set("mappedBytes",
          static_cast<unsigned long long>(reader.mappedBytes()));
    t.set("batched", batched);
    return t;
}

/** --trace-out: record the workload as a binary trace and exit. */
int
recordBinary(const Options &o)
{
    auto stream = makeStream(o, o.procs);
    std::uint32_t blockRecords = traceDefaultBlockRecords;
    if (o.traceBufferBytes) {
        const std::uint64_t recs =
            std::max<std::uint64_t>(1, o.traceBufferBytes /
                                           sizeof(TraceRecord));
        blockRecords = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(recs, 1u << 28));
    }
    TraceWriter w(o.traceOutPath, blockRecords);
    for (std::uint64_t n = 0; n < o.refs; ++n) {
        const auto r = stream->next();
        if (!r)
            break;
        w.append(*r);
    }
    w.finish();
    std::printf("recorded %llu references (%llu blocks, digest "
                "%016llx) to %s\n",
                static_cast<unsigned long long>(w.recordsWritten()),
                static_cast<unsigned long long>(w.blocksWritten()),
                static_cast<unsigned long long>(w.fileDigest()),
                o.traceOutPath.c_str());
    return 0;
}

int
runSweep(const Options &o)
{
    const auto start = std::chrono::steady_clock::now();
    struct Cell
    {
        unsigned bits = 0;
        RunResult result;
        DirStoreCounters dirStore;
    };
    std::vector<Cell> cells(o.sweepProcs.size());
    // Refuse a budget the scheme would ignore once, before the cells
    // start, rather than from each worker.
    makeScheme(o, o.sweepProcs.front());
    parallelFor(
        0, cells.size(),
        [&](std::size_t i) {
            const ProcId procs = o.sweepProcs[i];
            auto proto = makeScheme(o, procs);
            auto stream = makeStream(o, procs);
            RunOptions opts;
            opts.numRefs = o.refs;
            opts.checkCoherence = !o.noOracle;
            opts.invariantEvery = o.invariants ? 1000 : 0;
            cells[i].result = runFunctional(*proto, *stream, opts);
            cells[i].bits = proto->directoryBitsPerBlock();
            cells[i].dirStore = proto->dirStoreCounters();
        },
        o.threads);

    std::printf("# dir2bsim sweep: protocol=%s refs/cell=%llu "
                "threads=%u\n",
                o.protocol.c_str(),
                static_cast<unsigned long long>(o.refs),
                o.threads ? o.threads : defaultThreadCount());
    std::printf("%6s %10s %10s %12s %12s %10s\n", "procs", "netMsg",
                "useless", "inval", "perCacheOvh", "miss%");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells[i].result.counts;
        std::printf("%6u %10llu %10llu %12llu %12.4f %9.2f%%\n",
                    o.sweepProcs[i],
                    static_cast<unsigned long long>(c.netMessages),
                    static_cast<unsigned long long>(c.uselessCmds),
                    static_cast<unsigned long long>(c.invalidations),
                    cells[i].result.perCacheUselessPerRef,
                    100.0 * c.missRatio());
    }

    if (!o.jsonPath.empty()) {
        Json jcells = Json::array();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            Json c = Json::object();
            c.set("section", "sweep");
            c.set("procs", o.sweepProcs[i]);
            c.set("dirBitsPerBlock", cells[i].bits);
            c.set("result", runResultToJson(cells[i].result));
            if (hasDirStore(cells[i].dirStore))
                c.set("dirStore", dirStoreJson(cells[i].dirStore));
            jcells.push(std::move(c));
        }
        Json artifact = makeSweepArtifact("dir2bsim", configJson(o),
                                          std::move(jcells));
        const auto wall =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        stampMeta(artifact,
                  o.threads ? o.threads : defaultThreadCount(), wall,
                  false);
        writeArtifact(o.jsonPath, artifact);
        std::printf("wrote %s (%zu cells)\n", o.jsonPath.c_str(),
                    cells.size());
    }
    return 0;
}

int
runTimed(Options o)
{
    std::unique_ptr<TraceReader> reader;
    if (!o.traceInPath.empty())
        reader = std::make_unique<TraceReader>(o.traceInPath);
    ProcId procs = o.procs;
    if (reader && !o.procsSet && reader->header().numProcs)
        procs = static_cast<ProcId>(reader->header().numProcs);
    std::uint64_t refsPerProc = o.refs;
    if (reader && !o.refsSet)
        refsPerProc = reader->totalRecords() / std::max<ProcId>(1, procs);
    // Echo the effective replay geometry (possibly trace-derived) in
    // the artifact's params block.
    o.procs = procs;
    o.refs = refsPerProc;
    // A processor thinks for --think ticks before each of its
    // references, so its clock passes think x refs; keeping that under
    // 2^62 leaves the rest of the 64-bit tick for the latencies.
    if (o.think && refsPerProc > (Tick{1} << 62) / o.think)
        DIR2B_FATAL("--think ", o.think, " x --refs ", refsPerProc,
                    " would overflow the 64-bit simulated clock");

    TimedConfig cfg;
    if (o.protocol == "two_bit" || o.protocol == "tb")
        cfg.protocol = TimedProto::TwoBit;
    else if (o.protocol == "full_map" || o.protocol == "fm")
        cfg.protocol = TimedProto::FullMap;
    else if (o.protocol == "yen_fu" || o.protocol == "yf")
        cfg.protocol = TimedProto::YenFu;
    else
        DIR2B_FATAL("--timed knows two_bit|full_map|yen_fu "
                    "(tb|fm|yf), not '", o.protocol, "'");
    if (o.dirRamBudget > 0 && cfg.protocol != TimedProto::TwoBit)
        DIR2B_FATAL("--dir-ram-budget: timed protocol '", o.protocol,
                    "' keeps no tiered directory to budget");
    cfg.numProcs = procs;
    cfg.numModules = o.modules;
    cfg.cacheGeom.sets = o.sets;
    cfg.cacheGeom.ways = o.ways;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.dirRamBudget = o.dirRamBudget;
    cfg.thinkTime = o.think;

    SyntheticConfig scfg;
    scfg.numProcs = procs;
    scfg.q = o.q;
    scfg.w = o.w;
    scfg.sharedBlocks = o.sharedBlocks;
    scfg.sharedLocality = o.locality;
    scfg.privateBlocks = 96;
    scfg.hotBlocks = 24;
    scfg.seed = o.seed;
    scfg.spaceBlocks = o.spaceBlocks;
    SyntheticStream stream(scfg);
    std::unique_ptr<TraceProcSource> procSrc;
    if (reader)
        procSrc = std::make_unique<TraceProcSource>(*reader, procs);

    std::unique_ptr<TelemetrySampler> sampler;
    std::unique_ptr<ProgressMeter> meter;
    if (samplingRequested(o)) {
        sampler = std::make_unique<TelemetrySampler>(
            SeriesDomain::Ticks, effectiveInterval(o));
        if (o.progress) {
            meter = std::make_unique<ProgressMeter>(
                refsPerProc * procs);
            sampler->attachProgress(meter.get());
        }
        cfg.sampler = sampler.get();
    }

    const auto start = std::chrono::steady_clock::now();
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return procSrc ? procSrc->next(p) : stream.nextFor(p);
        },
        refsPerProc);

    std::printf("# dir2bsim timed: protocol=%s procs=%u cache=%zux%zu "
                "modules=%u refs/proc=%llu%s\n",
                o.protocol.c_str(), procs, o.sets, o.ways, o.modules,
                static_cast<unsigned long long>(refsPerProc),
                reader ? " (binary trace replay)" : "");
    std::printf("%-24s %12llu\n", "cycles",
                static_cast<unsigned long long>(r.finalTick));
    std::printf("%-24s %12llu\n", "refsCompleted",
                static_cast<unsigned long long>(r.refsCompleted));
    std::printf("%-24s %12llu\n", "eventsExecuted",
                static_cast<unsigned long long>(r.eventsExecuted));
    std::printf("%-24s %12.2f\n", "avgLatency", r.avgLatency);
    std::printf("%-24s %12llu\n", "latencyP99",
                static_cast<unsigned long long>(r.latencyP99));
    std::printf("%-24s %12llu\n", "netMessages",
                static_cast<unsigned long long>(r.netMessages));
    std::printf("%-24s %12llu\n", "broadcasts",
                static_cast<unsigned long long>(r.broadcasts));
    std::printf("%-24s %12llu\n", "netWaitCycles",
                static_cast<unsigned long long>(r.netWaitCycles));
    std::printf("%-24s %12llu\n", "stolenCycles",
                static_cast<unsigned long long>(r.stolenCycles));
    if (hasDirStore(r.dirStore)) {
        const DirStoreCounters &d = r.dirStore;
        std::printf("%-24s %12llu\n", "dirResidentBytes",
                    static_cast<unsigned long long>(d.residentBytes));
        std::printf("%-24s %12llu\n", "dirCompressedBytes",
                    static_cast<unsigned long long>(
                        d.compressedBytes));
        std::printf("%-24s %12llu\n", "dirSegmentBytes",
                    static_cast<unsigned long long>(d.segmentBytes));
        std::printf("%-24s %6llu/%6llu/%6llu\n",
                    "dirPages (hot/cold/disk)",
                    static_cast<unsigned long long>(d.hotPages),
                    static_cast<unsigned long long>(d.coldPages),
                    static_cast<unsigned long long>(d.diskPages));
    }
    std::printf("# coherence: oracle checked %llu reads, "
                "%llu writes\n",
                static_cast<unsigned long long>(r.readsChecked),
                static_cast<unsigned long long>(r.writesRecorded));

    if (sampler)
        writeSeries(o, *sampler);

    if (!o.jsonPath.empty()) {
        Json cells = Json::array();
        Json c = Json::object();
        c.set("section", "timed");
        c.set("procs", procs);
        c.set("cycles", static_cast<unsigned long long>(r.finalTick));
        c.set("refs",
              static_cast<unsigned long long>(r.refsCompleted));
        c.set("messages",
              static_cast<unsigned long long>(r.netMessages));
        c.set("broadcasts",
              static_cast<unsigned long long>(r.broadcasts));
        c.set("netWaitCycles",
              static_cast<unsigned long long>(r.netWaitCycles));
        c.set("stolenCycles",
              static_cast<unsigned long long>(r.stolenCycles));
        c.set("avgLatency", r.avgLatency);
        c.set("latencyP50",
              static_cast<unsigned long long>(r.latencyP50));
        c.set("latencyP99",
              static_cast<unsigned long long>(r.latencyP99));
        if (hasDirStore(r.dirStore))
            c.set("dirStore", dirStoreJson(r.dirStore));
        if (reader)
            c.set("traceReplay", traceReplayJson(*reader, false));
        if (sampler)
            c.set("series", seriesProvenanceJson(*sampler));
        cells.push(std::move(c));
        Json params = configJson(o);
        params.set("timed", true);
        params.set("think", static_cast<unsigned long long>(o.think));
        Json artifact = makeSweepArtifact("dir2bsim", std::move(params),
                                          std::move(cells));
        const auto wall =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        stampMeta(artifact, 1, wall, false);
        writeArtifact(o.jsonPath, artifact);
        std::printf("wrote %s (1 cell)\n", o.jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    if (o.mode == TraceOut)
        return recordBinary(o);
    if (o.mode == Timed)
        return runTimed(o);
    if (o.mode == Sweep)
        return runSweep(o);

    std::unique_ptr<TraceReader> reader;
    if (!o.traceInPath.empty())
        reader = std::make_unique<TraceReader>(o.traceInPath);
    ProcId procs = o.procs;
    if (reader && !o.procsSet && reader->header().numProcs)
        procs = static_cast<ProcId>(reader->header().numProcs);
    // Echo the effective replay geometry in params and printouts: a
    // bare --trace-in takes procs and refs from the trace header, and
    // the artifact must describe the run that actually happened.
    o.procs = procs;
    if (reader && !o.refsSet)
        o.refs = reader->totalRecords();

    if (o.mode == Analyze) {
        if (reader) {
            printTraceStats(std::cout, analyzeTrace(*reader, o.refs));
        } else {
            auto stream = makeStream(o, procs);
            const auto refs = recordStream(*stream, o.refs);
            printTraceStats(std::cout, analyzeTrace(refs));
        }
        return 0;
    }

    if (o.mode == Record) {
        auto stream = makeStream(o, procs);
        std::ofstream out(o.recordPath);
        if (!out)
            DIR2B_FATAL("cannot open '", o.recordPath, "' for writing");
        writeTrace(out, recordStream(*stream, o.refs));
        std::printf("recorded %llu references to %s\n",
                    static_cast<unsigned long long>(o.refs),
                    o.recordPath.c_str());
        return 0;
    }

    const auto start = std::chrono::steady_clock::now();
    auto proto = makeScheme(o, procs);

    RunOptions opts;
    opts.numRefs = reader && !o.refsSet ? reader->totalRecords()
                                        : o.refs;
    opts.checkCoherence = !o.noOracle;
    opts.invariantEvery = o.invariants ? 1000 : 0;
    std::unique_ptr<TelemetrySampler> sampler;
    std::unique_ptr<ProgressMeter> meter;
    if (samplingRequested(o)) {
        sampler = std::make_unique<TelemetrySampler>(
            SeriesDomain::Refs, effectiveInterval(o));
        registerFunctionalMetrics(sampler->registry(), *proto);
        if (o.progress) {
            meter = std::make_unique<ProgressMeter>(opts.numRefs);
            sampler->attachProgress(meter.get());
        }
        opts.sampler = sampler.get();
    }
    RunResult r;
    if (reader) {
        TraceBatchStream batches(*reader);
        r = runFunctionalBatched(*proto, batches, opts);
    } else {
        auto stream = makeStream(o, procs);
        r = runFunctional(*proto, *stream, opts);
    }

    std::printf("# dir2bsim: protocol=%s procs=%u cache=%zux%zu "
                "modules=%u refs=%llu%s\n",
                proto->name().c_str(), procs, o.sets, o.ways,
                o.modules,
                static_cast<unsigned long long>(r.counts.refs()),
                reader ? " (binary trace replay)" : "");
    AccessCounts::forEachField(
        r.counts, [](const char *name, std::uint64_t v) {
            if (v)
                std::printf("%-24s %12llu\n", name,
                            static_cast<unsigned long long>(v));
        });
    std::printf("%-24s %12.4f\n", "missRatio", r.counts.missRatio());
    std::printf("%-24s %12.4f\n", "uselessPerRef",
                r.counts.uselessPerRef());
    std::printf("%-24s %12.4f\n", "perCacheOverhead",
                r.perCacheUselessPerRef);
    std::printf("%-24s %12u\n", "dirBitsPerBlock",
                proto->directoryBitsPerBlock());
    const DirStoreCounters dirStore = proto->dirStoreCounters();
    if (hasDirStore(dirStore)) {
        std::printf("%-24s %12llu\n", "dirResidentBytes",
                    static_cast<unsigned long long>(
                        dirStore.residentBytes));
        std::printf("%-24s %12llu\n", "dirCompressedBytes",
                    static_cast<unsigned long long>(
                        dirStore.compressedBytes));
        std::printf("%-24s %12llu\n", "dirSegmentBytes",
                    static_cast<unsigned long long>(
                        dirStore.segmentBytes));
        std::printf("%-24s %6llu/%6llu/%6llu\n",
                    "dirPages (hot/cold/disk)",
                    static_cast<unsigned long long>(dirStore.hotPages),
                    static_cast<unsigned long long>(
                        dirStore.coldPages),
                    static_cast<unsigned long long>(
                        dirStore.diskPages));
    }
    if (!o.noOracle)
        std::printf("# coherence: every read verified\n");

    if (sampler)
        writeSeries(o, *sampler);

    if (!o.jsonPath.empty()) {
        Json cells = Json::array();
        Json c = Json::object();
        c.set("section", "run");
        c.set("procs", procs);
        c.set("dirBitsPerBlock", proto->directoryBitsPerBlock());
        c.set("result", runResultToJson(r));
        if (hasDirStore(dirStore))
            c.set("dirStore", dirStoreJson(dirStore));
        if (reader)
            c.set("traceReplay", traceReplayJson(*reader, true));
        if (sampler)
            c.set("series", seriesProvenanceJson(*sampler));
        cells.push(std::move(c));
        Json artifact = makeSweepArtifact("dir2bsim", configJson(o),
                                          std::move(cells));
        const auto wall =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        stampMeta(artifact,
                  o.threads ? o.threads : defaultThreadCount(), wall,
                  false);
        writeArtifact(o.jsonPath, artifact);
        std::printf("wrote %s (1 cell)\n", o.jsonPath.c_str());
    }
    return 0;
}
