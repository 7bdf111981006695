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
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
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

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --protocol NAME     scheme to run (--list-protocols)\n"
        "  --procs N           processor-cache pairs (default 4)\n"
        "  --sets N --ways N   cache geometry (default 32x4)\n"
        "  --modules N         memory modules (default 4)\n"
        "  --tb N              translation-buffer entries/module\n"
        "  --bias N            BIAS filter entries (classical)\n"
        "  --q F --w F         sharing level and write fraction\n"
        "  --shared N          number of shared blocks (default 16)\n"
        "  --locality F        shared re-reference probability\n"
        "  --refs N            references to simulate\n"
        "  --seed N            workload seed\n"
        "  --trace FILE        replay a recorded text trace\n"
        "  --record FILE       record the workload as text instead of\n"
        "                      running\n"
        "  --trace-in FILE     mmap-replay a binary trace (zero-copy\n"
        "                      batched dispatch; docs/TRACES.md).\n"
        "                      Works with --timed too; results are\n"
        "                      bit-identical to the run that\n"
        "                      recorded the stream\n"
        "  --trace-out FILE    record the synthetic workload as a\n"
        "                      binary trace instead of running\n"
        "  --trace-buffer BYTES\n"
        "                      writer block size for --trace-out\n"
        "                      (suffixes k/m/g; default 1M = 64Ki\n"
        "                      records per block)\n"
        "  --json FILE         export results as a JSON artifact\n"
        "                      (schema: docs/METRICS.md)\n"
        "  --series-out FILE   record a dir2b.series time-series\n"
        "                      artifact (docs/METRICS.md); sampling\n"
        "                      never changes simulation results\n"
        "  --series-interval N sample every N refs (functional) or N\n"
        "                      ticks (--timed); suffixes k/m/g.\n"
        "                      Default 4096 when sampling is on\n"
        "  --progress          live progress line on stderr (refs/s,\n"
        "                      ETA, interval rates); implies sampling\n"
        "  --sweep-procs LIST  run once per comma-separated processor\n"
        "                      count (e.g. 2,4,8), cells in parallel;\n"
        "                      not with --timed\n"
        "  --threads N         sweep-pool width (default: the\n"
        "                      DIR2B_THREADS env var, else all cores);\n"
        "                      not with --timed\n"
        "  --no-oracle         skip coherence checking (faster); not\n"
        "                      with --timed, which always checks\n"
        "  --analyze           print trace statistics, don't simulate\n"
        "  --invariants        deep-check structures every 1k refs\n"
        "  --timed             run the discrete-event tier instead\n"
        "                      (protocols tb|fm|yf; --refs is per\n"
        "                      processor there)\n"
        "  --dir-ram-budget BYTES\n"
        "                      total directory RAM budget (suffixes\n"
        "                      K/M/G); cold directory pages compress\n"
        "                      and spill to disk past it.  0 =\n"
        "                      unlimited.  Results are bit-identical\n"
        "                      at any budget.  Schemes with no tiered\n"
        "                      directory (classical, --timed fm, ...)\n"
        "                      refuse it\n"
        "  --space-blocks N    hash-scatter the synthetic working set\n"
        "                      over an N-block address space (0 =\n"
        "                      classic compact layout) — exercises\n"
        "                      huge sparse directories\n"
        "  --think N           with --timed: processor think time\n"
        "                      between references (default 1)\n"
        "  --list-protocols    print registered protocol names\n",
        argv0);
}

/** An unsigned count flag (parseScaledUint's grammar), at most `max`
 *  so that it survives narrowing to ProcId, ModuleId or unsigned. */
std::uint64_t
countArg(const char *s, const char *flag,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::uint64_t v = parseScaledUint(s, flag, "count");
    if (v > max)
        DIR2B_FATAL(flag, ": ", v, " exceeds the largest allowed, ", max);
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (++i >= argc)
            DIR2B_FATAL("missing value for ", argv[i - 1]);
        return argv[i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--protocol") {
            o.protocol = need(i);
        } else if (arg == "--procs") {
            o.procs = static_cast<ProcId>(
                countArg(need(i), "--procs", invalidProc - 1));
            o.procsSet = true;
        } else if (arg == "--sets") {
            o.sets = countArg(need(i), "--sets");
        } else if (arg == "--ways") {
            o.ways = countArg(need(i), "--ways");
        } else if (arg == "--modules") {
            o.modules = static_cast<ModuleId>(countArg(
                need(i), "--modules",
                std::numeric_limits<ModuleId>::max()));
        } else if (arg == "--tb") {
            o.tbCapacity = countArg(need(i), "--tb");
        } else if (arg == "--bias") {
            o.biasCapacity = countArg(need(i), "--bias");
        } else if (arg == "--q") {
            o.q = std::atof(need(i));
        } else if (arg == "--w") {
            o.w = std::atof(need(i));
        } else if (arg == "--shared") {
            o.sharedBlocks = countArg(need(i), "--shared");
        } else if (arg == "--locality") {
            o.locality = std::atof(need(i));
        } else if (arg == "--refs") {
            o.refs = countArg(need(i), "--refs");
            o.refsSet = true;
        } else if (arg == "--seed") {
            o.seed = countArg(need(i), "--seed");
        } else if (arg == "--trace") {
            o.tracePath = need(i);
        } else if (arg == "--record") {
            o.recordPath = need(i);
        } else if (arg == "--trace-in") {
            o.traceInPath = need(i);
        } else if (arg == "--trace-out") {
            o.traceOutPath = need(i);
        } else if (arg == "--trace-buffer") {
            o.traceBufferBytes = parseByteSize(need(i),
                                               "--trace-buffer");
        } else if (arg == "--json") {
            o.jsonPath = need(i);
        } else if (arg == "--series-out") {
            o.seriesPath = need(i);
        } else if (arg == "--series-interval") {
            o.seriesInterval = parseInterval(need(i),
                                             "--series-interval");
        } else if (arg == "--progress") {
            o.progress = true;
        } else if (arg == "--sweep-procs") {
            std::string list = need(i);
            for (std::size_t pos = 0; pos < list.size();) {
                const std::size_t comma = list.find(',', pos);
                const std::string tok = list.substr(
                    pos, comma == std::string::npos ? comma
                                                    : comma - pos);
                const std::uint64_t v =
                    countArg(tok.c_str(), "--sweep-procs", invalidProc - 1);
                if (v == 0)
                    DIR2B_FATAL("--sweep-procs: bad count '", tok, "'");
                o.sweepProcs.push_back(static_cast<ProcId>(v));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            if (o.sweepProcs.empty())
                DIR2B_FATAL("--sweep-procs: empty list");
        } else if (arg == "--threads") {
            const std::uint64_t v = countArg(
                need(i), "--threads", std::numeric_limits<unsigned>::max());
            if (v == 0)
                DIR2B_FATAL("--threads wants a positive integer");
            o.threads = static_cast<unsigned>(v);
        } else if (arg == "--no-oracle") {
            o.noOracle = true;
        } else if (arg == "--timed") {
            o.timed = true;
        } else if (arg == "--dir-ram-budget") {
            o.dirRamBudget = parseByteSize(need(i),
                                           "--dir-ram-budget");
        } else if (arg == "--space-blocks") {
            o.spaceBlocks = countArg(need(i), "--space-blocks");
        } else if (arg == "--think") {
            o.think = countArg(need(i), "--think");
        } else if (arg == "--analyze") {
            o.analyze = true;
        } else if (arg == "--invariants") {
            o.invariants = true;
        } else if (arg == "--list-protocols") {
            for (const auto &name : protocolNames())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(0);
        } else {
            usage(argv[0]);
            DIR2B_FATAL("unknown option '", arg, "'");
        }
    }
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
    if (!o.traceInPath.empty() || !o.recordPath.empty())
        DIR2B_FATAL("--trace-out excludes --trace-in/--record");
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
    if (!o.tracePath.empty())
        DIR2B_FATAL("--sweep-procs runs synthetic workloads only");
    if (samplingRequested(o))
        DIR2B_FATAL("--series-out/--series-interval/--progress sample "
                    "a single run, not a --sweep-procs grid");

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
    if (!o.tracePath.empty() || !o.recordPath.empty() || o.analyze)
        DIR2B_FATAL("--timed runs synthetic workloads or binary "
                    "trace replay (--trace-in) only");

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

    if (samplingRequested(o) &&
        (o.analyze || !o.recordPath.empty() || !o.traceOutPath.empty()))
        DIR2B_FATAL("--series-out/--series-interval/--progress need a "
                    "simulation run, not --analyze/--record/--trace-out");

    if (!o.traceOutPath.empty())
        return recordBinary(o);

    if (o.timed) {
        if (o.noOracle)
            DIR2B_FATAL("--no-oracle does not apply to --timed: the "
                        "timed tier always checks coherence");
        if (!o.sweepProcs.empty())
            DIR2B_FATAL("--sweep-procs does not apply to --timed: a "
                        "timed run has one processor count (--procs)");
        if (o.threads)
            DIR2B_FATAL("--threads does not apply to --timed: a timed "
                        "run is one serial engine on one thread");
        return runTimed(o);
    }

    if (!o.sweepProcs.empty()) {
        if (!o.traceInPath.empty())
            DIR2B_FATAL("--sweep-procs runs synthetic workloads only");
        return runSweep(o);
    }

    std::unique_ptr<TraceReader> reader;
    if (!o.traceInPath.empty()) {
        if (!o.tracePath.empty() || !o.recordPath.empty())
            DIR2B_FATAL("--trace-in excludes --trace/--record");
        reader = std::make_unique<TraceReader>(o.traceInPath);
    }
    ProcId procs = o.procs;
    if (reader && !o.procsSet && reader->header().numProcs)
        procs = static_cast<ProcId>(reader->header().numProcs);
    // Echo the effective replay geometry in params and printouts: a
    // bare --trace-in takes procs and refs from the trace header, and
    // the artifact must describe the run that actually happened.
    o.procs = procs;
    if (reader && !o.refsSet)
        o.refs = reader->totalRecords();

    if (o.analyze) {
        if (reader) {
            printTraceStats(std::cout, analyzeTrace(*reader));
        } else {
            auto stream = makeStream(o, procs);
            const auto refs = recordStream(*stream, o.refs);
            printTraceStats(std::cout, analyzeTrace(refs));
        }
        return 0;
    }

    if (!o.recordPath.empty()) {
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
