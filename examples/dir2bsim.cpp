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
#include <cctype>
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

/** The synthetic workload the knobs describe, at `procs` processors. */
SyntheticConfig
syntheticConfig(const Options &o, ProcId procs)
{
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
    return cfg;
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
    return std::make_unique<SyntheticStream>(syntheticConfig(o, procs));
}

/**
 * Open the --trace-in trace, if any, and echo the run geometry it
 * fixes into `o`, so params and printouts describe the run that
 * actually happens: without --procs the header's processor count,
 * without --refs every record (split among the processors with
 * --timed, whose --refs counts per processor).
 */
std::unique_ptr<TraceReader>
openTraceIn(Options &o)
{
    if (o.traceInPath.empty())
        return nullptr;
    auto reader = std::make_unique<TraceReader>(o.traceInPath);
    if (!o.procsSet && reader->header().numProcs)
        o.procs = static_cast<ProcId>(reader->header().numProcs);
    if (!o.refsSet)
        o.refs = reader->totalRecords() /
                 (o.mode == Timed ? std::max<ProcId>(1, o.procs) : 1);
    return reader;
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

/**
 * The sampler the series flags ask for (interval default 4096 domain
 * units), or null when none is given.  With --progress, `meter` gets a
 * progress line over `totalRefs` references.
 */
std::unique_ptr<TelemetrySampler>
makeSampler(const Options &o, SeriesDomain domain, std::uint64_t totalRefs,
            std::unique_ptr<ProgressMeter> &meter)
{
    if (!o.seriesInterval && o.seriesPath.empty() && !o.progress)
        return nullptr;
    auto sampler = std::make_unique<TelemetrySampler>(
        domain, o.seriesInterval ? o.seriesInterval : 4096);
    if (o.progress) {
        meter = std::make_unique<ProgressMeter>(totalRefs);
        sampler->attachProgress(meter.get());
    }
    return sampler;
}

/** The run options of every functional run. */
RunOptions
runOptions(const Options &o)
{
    RunOptions opts;
    opts.numRefs = o.refs;
    opts.checkCoherence = !o.noOracle;
    opts.invariantEvery = o.invariants ? 1000 : 0;
    return opts;
}

/** A functional run's cell: its axes, result and directory store. */
Json
functionalCell(const char *section, ProcId procs, unsigned dirBits,
               const RunResult &r, const DirStoreCounters &dirStore)
{
    Json c = Json::object();
    c.set("section", section);
    c.set("procs", procs);
    c.set("dirBitsPerBlock", dirBits);
    c.set("result", runResultToJson(r));
    if (hasDirStore(dirStore))
        c.set("dirStore", dirStoreJson(dirStore));
    return c;
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

/**
 * Print each member of the flat object `fields` as one text-report
 * line.  A non-empty `prefix` goes before the key, whose first letter
 * is then upper-cased ("dir" + "residentBytes" -> "dirResidentBytes").
 */
void
printFields(const Json &fields, const std::string &prefix = "")
{
    for (const auto &[key, v] : fields.members()) {
        std::string name = prefix + key;
        if (!prefix.empty())
            name[prefix.size()] = static_cast<char>(std::toupper(key[0]));
        if (v.kind() == Json::Kind::Double)
            std::printf("%-24s %12.2f\n", name.c_str(), v.asDouble());
        else
            std::printf("%-24s %12llu\n", name.c_str(),
                        static_cast<unsigned long long>(v.asUint()));
    }
}

/** Write the --json artifact of `cells` under `params`.  A timed run
 *  is one serial simulation; the functional modes record the pool
 *  width. */
void
writeJson(const Options &o, Json params, Json cells, const WallTimer &timer)
{
    BenchOptions bo;
    bo.jsonPath = o.jsonPath;
    bo.threads = o.mode == Timed ? 1 : o.threads;
    emitArtifact(bo, "dir2bsim", std::move(params), std::move(cells), Json(),
                 timer);
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
    const WallTimer timer;
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
            cells[i].result = runFunctional(*proto, *stream, runOptions(o));
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
        for (std::size_t i = 0; i < cells.size(); ++i)
            jcells.push(functionalCell("sweep", o.sweepProcs[i],
                                       cells[i].bits, cells[i].result,
                                       cells[i].dirStore));
        writeJson(o, configJson(o), std::move(jcells), timer);
    }
    return 0;
}

int
runTimed(Options o)
{
    const std::unique_ptr<TraceReader> reader = openTraceIn(o);
    // A processor thinks for --think ticks before each of its
    // references, so its clock passes think x refs; keeping that under
    // 2^62 leaves the rest of the 64-bit tick for the latencies.
    if (o.think && o.refs > (Tick{1} << 62) / o.think)
        DIR2B_FATAL("--think ", o.think, " x --refs ", o.refs,
                    " would overflow the 64-bit simulated clock");

    TimedConfig cfg;
    if (const auto p = parseEnumName(timedProtoNames, o.protocol))
        cfg.protocol = *p;
    else
        DIR2B_FATAL("--timed knows two_bit|full_map|yen_fu "
                    "(tb|fm|yf), not '", o.protocol, "'");
    if (o.dirRamBudget > 0 && cfg.protocol != TimedProto::TwoBit)
        DIR2B_FATAL("--dir-ram-budget: timed protocol '", o.protocol,
                    "' keeps no tiered directory to budget");
    cfg.numProcs = o.procs;
    cfg.numModules = o.modules;
    cfg.cacheGeom.sets = o.sets;
    cfg.cacheGeom.ways = o.ways;
    cfg.perBlockConcurrency = true;
    cfg.network = NetKind::Crossbar;
    cfg.dirRamBudget = o.dirRamBudget;
    cfg.thinkTime = o.think;

    SyntheticStream stream(syntheticConfig(o, o.procs));
    std::unique_ptr<TraceProcSource> procSrc;
    if (reader)
        procSrc = std::make_unique<TraceProcSource>(*reader, o.procs);

    std::unique_ptr<ProgressMeter> meter;
    const auto sampler =
        makeSampler(o, SeriesDomain::Ticks, o.refs * o.procs, meter);
    cfg.sampler = sampler.get();

    const WallTimer timer;
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return procSrc ? procSrc->next(p) : stream.nextFor(p);
        },
        o.refs);

    std::printf("# dir2bsim timed: protocol=%s procs=%u cache=%zux%zu "
                "modules=%u refs/proc=%llu%s\n",
                o.protocol.c_str(), o.procs, o.sets, o.ways, o.modules,
                static_cast<unsigned long long>(o.refs),
                reader ? " (binary trace replay)" : "");
    printFields(timedResultToJson(r));
    if (hasDirStore(r.dirStore))
        printFields(dirStoreJson(r.dirStore), "dir");
    std::printf("# coherence: oracle checked every completion\n");

    if (sampler)
        writeSeries(o, *sampler);

    if (!o.jsonPath.empty()) {
        Json c = Json::object();
        c.set("section", "timed");
        c.set("procs", o.procs);
        c = timedResultToJson(r, std::move(c));
        if (hasDirStore(r.dirStore))
            c.set("dirStore", dirStoreJson(r.dirStore));
        if (reader)
            c.set("traceReplay", traceReplayJson(*reader, false));
        if (sampler)
            c.set("series", seriesProvenanceJson(*sampler));
        Json cells = Json::array();
        cells.push(std::move(c));
        writeJson(o, seriesParams(o), std::move(cells), timer);
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

    const std::unique_ptr<TraceReader> reader = openTraceIn(o);

    if (o.mode == Analyze) {
        if (reader) {
            printTraceStats(std::cout, analyzeTrace(*reader, o.refs));
        } else {
            auto stream = makeStream(o, o.procs);
            const auto refs = recordStream(*stream, o.refs);
            printTraceStats(std::cout, analyzeTrace(refs));
        }
        return 0;
    }

    if (o.mode == Record) {
        auto stream = makeStream(o, o.procs);
        std::ofstream out(o.recordPath);
        if (!out)
            DIR2B_FATAL("cannot open '", o.recordPath, "' for writing");
        writeTrace(out, recordStream(*stream, o.refs));
        std::printf("recorded %llu references to %s\n",
                    static_cast<unsigned long long>(o.refs),
                    o.recordPath.c_str());
        return 0;
    }

    const WallTimer timer;
    auto proto = makeScheme(o, o.procs);

    RunOptions opts = runOptions(o);
    std::unique_ptr<ProgressMeter> meter;
    const auto sampler = makeSampler(o, SeriesDomain::Refs, o.refs, meter);
    if (sampler)
        registerFunctionalMetrics(sampler->registry(), *proto);
    opts.sampler = sampler.get();
    RunResult r;
    if (reader) {
        TraceBatchStream batches(*reader);
        r = runFunctionalBatched(*proto, batches, opts);
    } else {
        auto stream = makeStream(o, o.procs);
        r = runFunctional(*proto, *stream, opts);
    }

    std::printf("# dir2bsim: protocol=%s procs=%u cache=%zux%zu "
                "modules=%u refs=%llu%s\n",
                proto->name().c_str(), o.procs, o.sets, o.ways,
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
    if (hasDirStore(dirStore))
        printFields(dirStoreJson(dirStore), "dir");
    if (!o.noOracle)
        std::printf("# coherence: every read verified\n");

    if (sampler)
        writeSeries(o, *sampler);

    if (!o.jsonPath.empty()) {
        Json c = functionalCell("run", o.procs,
                                proto->directoryBitsPerBlock(), r, dirStore);
        if (reader)
            c.set("traceReplay", traceReplayJson(*reader, true));
        if (sampler)
            c.set("series", seriesProvenanceJson(*sampler));
        Json cells = Json::array();
        cells.push(std::move(c));
        writeJson(o, configJson(o), std::move(cells), timer);
    }
    return 0;
}
