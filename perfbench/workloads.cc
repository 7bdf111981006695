/**
 * @file
 * The four benchmark workloads; perfbench/README.md says why each was
 * chosen.  One call runs one repetition: set-up (inputs, systems), the
 * measured phase, then the checks.  Untraced, the measured phase calls
 * the library as a user does (runFunctional, runFunctionalBatched,
 * TimedSystem::run, parallelFor) and times each call whole.  Traced,
 * it makes the same calls in the same order with a span stamp at each
 * layer boundary.
 */

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/two_bit_protocol.hh"
#include "harness.hh"
#include "model/overhead_model.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "trace/synthetic.hh"
#include "trace/trace_binary.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace dir2b
{
namespace perfbench
{

namespace
{

// Run lengths.  One repetition takes 0.15-0.35 s of host time on one
// current x86 core, so a 30 s run holds 60-150 of them: short enough
// for the fastest to fall in the host's quiet moments (main.cc,
// throughputQuantile).
constexpr std::uint64_t sharingRefs = 400000;  ///< per scheme
constexpr std::uint64_t scatterRefs = 250000; ///< recorded, then replayed
constexpr std::uint64_t crossbarRefsPerProc = 2500;
constexpr std::uint64_t sweepFuncRefs = 250000; ///< per functional cell

/** func_scatter's directory RAM budget: below the directory its trace
 *  touches, so pages cycle hot <-> compressed, and above hot plus
 *  compressed, so no page reaches the disk segment. */
constexpr std::uint64_t scatterDirBudget = 256ULL << 10;

/** Span ticks per layer of one traced functional run. */
struct FuncTicks
{
    std::uint64_t src = 0;
    std::uint64_t access = 0;
    std::uint64_t oracle = 0;
    std::uint64_t residual = 0;

    std::uint64_t total() const { return src + access + oracle + residual; }
};

/**
 * The traced twin of runFunctional / runFunctionalBatched.  It is the
 * body of FuncRun::step (system/func_system.cc), call for call and in
 * the same order, with a span stamp at each boundary between the
 * reference source, Protocol::access, the CoherenceOracle and the
 * runner's own bookkeeping (the residual).  Its RunResult must equal
 * the untraced run's; the repetition digest checks that.
 */
class TracedFuncRun
{
  public:
    TracedFuncRun(Protocol &p, const RunOptions &o)
        : proto_(p),
          opts_(o),
          twoBit_(dynamic_cast<const TwoBitProtocol *>(&p)),
          table_(dynamic_cast<const TableProtocol *>(&p)),
          startCounts_(p.counts())
    {
        DIR2B_ASSERT(!o.sampler && !o.invariantEvery,
                     "the traced runner mirrors the benchmark's options");
    }

    RunResult
    run(RefStream &stream)
    {
        last_ = spanTicks();
        while (executed_ < opts_.numRefs) {
            stamp(ticks_.residual);
            const auto ref = stream.next();
            stamp(ticks_.src);
            if (!ref)
                break;
            step(ref->proc, ref->addr, ref->write);
        }
        stamp(ticks_.residual);
        return finish();
    }

    RunResult
    run(TraceBatchStream &batches)
    {
        last_ = spanTicks();
        while (executed_ < opts_.numRefs) {
            stamp(ticks_.residual);
            const AccessBatch batch = batches.nextBatch();
            stamp(ticks_.src);
            if (batch.empty())
                break;
            std::size_t n = batch.count;
            if (opts_.numRefs - executed_ < n)
                n = static_cast<std::size_t>(opts_.numRefs - executed_);
            for (std::size_t i = 0; i < n; ++i) {
                // Loading a record out of the mapping is trace work:
                // pin the loads before the stamp that closes its span.
                const TraceRecord rec = batch.recs[i];
                asm volatile("" : : "r"(rec.addr), "r"(rec.proc),
                             "r"(rec.flags));
                stamp(ticks_.src);
                step(rec.proc, rec.addr, rec.write());
                stamp(ticks_.residual);
            }
        }
        stamp(ticks_.residual);
        return finish();
    }

    const FuncTicks &ticks() const { return ticks_; }
    std::uint64_t readsChecked() const { return oracle_.readsChecked(); }

  private:
    void
    stamp(std::uint64_t &layer)
    {
        const std::uint64_t t = spanTicks();
        layer += t - last_;
        last_ = t;
    }

    void
    step(ProcId proc, Addr addr, bool write)
    {
        DIR2B_ASSERT(proc < proto_.numProcs(),
                     "stream produced reference for processor ", proc,
                     " but the system has ", proto_.numProcs());

        if (write) {
            const Value wval = oracle_.freshValue();
            stamp(ticks_.oracle);
            proto_.access(proc, addr, true, wval);
            stamp(ticks_.access);
            if (opts_.checkCoherence)
                oracle_.onWrite(addr, wval);
            stamp(ticks_.oracle);
        } else {
            const Value v = proto_.access(proc, addr, false);
            stamp(ticks_.access);
            if (opts_.checkCoherence)
                oracle_.onRead(addr, v);
            stamp(ticks_.oracle);
        }

        if (addr >= sharedRegionBase) {
            ++result_.sharedRefs;
            if (write)
                ++result_.sharedWrites;
            const AccessCounts &d = proto_.lastDelta();
            if (d.readHits + d.writeHits == 1)
                ++result_.sharedHits;
        }

        ++executed_;

        if (opts_.sampleEvery && (twoBit_ || table_) && opts_.sharedBlocks &&
            executed_ % opts_.sampleEvery == 0) {
            for (std::size_t b = 0; b < opts_.sharedBlocks; ++b)
                ++occupancy_[dirStateIndex(sharedRegionBase + b)];
            ++result_.stateSamples;
        }
    }

    std::size_t
    dirStateIndex(Addr a) const
    {
        return twoBit_ ? static_cast<std::size_t>(twoBit_->globalState(a))
                       : static_cast<std::size_t>(table_->dirStateOf(a));
    }

    RunResult
    finish()
    {
        result_.counts = proto_.counts() - startCounts_;
        if (result_.stateSamples) {
            const double denom =
                static_cast<double>(result_.stateSamples) *
                static_cast<double>(opts_.sharedBlocks);
            for (std::size_t s = 0; s < 4; ++s)
                result_.stateOccupancy[s] =
                    static_cast<double>(occupancy_[s]) / denom;
        }
        if (executed_ > 0) {
            const double tSum =
                static_cast<double>(result_.counts.uselessCmds) /
                static_cast<double>(executed_);
            result_.perCacheUselessPerRef =
                static_cast<double>(proto_.numProcs() - 1) * tSum;
        }
        return result_;
    }

    Protocol &proto_;
    const RunOptions &opts_;
    const TwoBitProtocol *twoBit_;
    const TableProtocol *table_;
    AccessCounts startCounts_;
    CoherenceOracle oracle_;
    RunResult result_;
    std::array<std::uint64_t, 4> occupancy_{};
    std::uint64_t executed_ = 0;
    FuncTicks ticks_;
    std::uint64_t last_ = 0;
};

/** One functional run: a protocol, its input and its options. */
struct FuncJob
{
    std::string scheme;
    std::unique_ptr<Protocol> proto;
    /** The live input; when null the run replays `reader`. */
    std::unique_ptr<SyntheticStream> stream;
    const TraceReader *reader = nullptr;
    RunOptions opts;

    RunResult result;
    std::uint64_t readsChecked = 0;
    double seconds = 0.0;
    FuncTicks ticks;

    void
    run(bool traced)
    {
        const double t0 = wallSeconds();
        if (traced) {
            TracedFuncRun t(*proto, opts);
            if (stream) {
                result = t.run(*stream);
            } else {
                TraceBatchStream batches(*reader);
                result = t.run(batches);
            }
            readsChecked = t.readsChecked();
            ticks = t.ticks();
        } else {
            if (stream) {
                result = runFunctional(*proto, *stream, opts);
            } else {
                TraceBatchStream batches(*reader);
                result = runFunctionalBatched(*proto, batches, opts);
            }
            // runFunctional checks every read against its own oracle.
            readsChecked = result.counts.reads;
        }
        seconds = wallSeconds() - t0;
    }
};

FuncJob
funcJob(const std::string &scheme, const ProtoConfig &pc,
        std::uint64_t refs)
{
    FuncJob j;
    j.scheme = scheme;
    j.proto = makeProtocol(scheme, pc);
    j.opts.numRefs = refs;
    j.opts.checkCoherence = true;
    return j;
}

/** References of j that count as failed: all of them unless it
 *  retired every reference and checked every read. */
std::uint64_t
funcFailures(const FuncJob &j)
{
    const AccessCounts &c = j.result.counts;
    if (c.refs() == j.opts.numRefs && j.readsChecked == c.reads)
        return 0;
    std::fprintf(stderr,
                 "perfbench: %s retired %llu of %llu references and "
                 "checked %llu of %llu reads\n",
                 j.scheme.c_str(), static_cast<unsigned long long>(c.refs()),
                 static_cast<unsigned long long>(j.opts.numRefs),
                 static_cast<unsigned long long>(j.readsChecked),
                 static_cast<unsigned long long>(c.reads));
    return j.opts.numRefs;
}

/** two_bit_table is bit-identical to two_bit on one stream: any count
 *  that differs fails the table run. */
std::uint64_t
twinFailures(const FuncJob &hand, const FuncJob &table)
{
    if (sameCounts(hand.result.counts, table.result.counts))
        return 0;
    std::fprintf(stderr, "perfbench: %s and %s disagree on one stream\n",
                 hand.scheme.c_str(), table.scheme.c_str());
    return table.opts.numRefs;
}

void
digestFunc(Digest &dg, const FuncJob &j)
{
    dg.add(j.scheme);
    dg.add(j.result);
    dg.add(j.proto->dirStoreCounters());
}

/** Run the jobs in order as the measured phase of rep. */
void
runFuncJobs(std::vector<FuncJob> &jobs, bool traced, Rep &rep, Digest &dg)
{
    for (FuncJob &j : jobs) {
        j.run(traced);
        const std::uint64_t refs = j.result.counts.refs();
        rep.wallS += j.seconds;
        rep.refs += refs;
        rep.attempted += j.opts.numRefs;
        rep.failed += funcFailures(j);
        rep.exact["check.reads_checked"] +=
            static_cast<double>(j.readsChecked);
        digestFunc(dg, j);
        if (!traced)
            continue;
        const std::uint64_t all = j.ticks.total();
        const auto put = [&](const std::string &name, std::uint64_t part) {
            LayerTime &l = rep.layers[name];
            l.seconds += shareOf(part, all, j.seconds);
            l.refs += refs;
        };
        put("trace.src_ns_per_ref", j.ticks.src);
        put("proto." + j.scheme + ".ns_per_ref", j.ticks.access);
        put("check.oracle_ns_per_ref", j.ticks.oracle);
        put("system.residual_ns_per_ref", j.ticks.residual);
    }
}

/** Measured §4.2 overhead over the closed form evaluated at the run's
 *  own q, w, h and state occupancies. */
double
overheadRatio(const RunResult &r, unsigned n)
{
    SharingParams p;
    p.n = n;
    p.q = r.measuredQ(r.counts.refs());
    p.w = r.measuredW();
    p.h = r.measuredH();
    p.pP1 = r.stateOccupancy[static_cast<std::size_t>(GlobalState::Present1)];
    p.pPStar =
        r.stateOccupancy[static_cast<std::size_t>(GlobalState::PresentStar)];
    p.pPM = r.stateOccupancy[static_cast<std::size_t>(GlobalState::PresentM)];
    const double model = overhead(p).perCache;
    return model > 0.0 ? r.perCacheUselessPerRef / model : 0.0;
}

/** One timed run: a system, its synthetic source and its length. */
struct TimedJob
{
    std::string scheme;
    std::unique_ptr<TimedSystem> sys;
    std::unique_ptr<SyntheticStream> stream;
    std::uint64_t refsPerProc = 0;

    TimedRunResult result;
    double seconds = 0.0;
    /** Traced only: the share of `seconds` spent in the ProcSource. */
    double srcSeconds = 0.0;

    void
    run(bool traced)
    {
        SyntheticStream &s = *stream;
        const double t0 = wallSeconds();
        if (!traced) {
            result = sys->run(
                [&s](ProcId p) -> std::optional<MemRef> {
                    return s.nextFor(p);
                },
                refsPerProc);
            seconds = wallSeconds() - t0;
            return;
        }
        std::uint64_t srcTicks = 0;
        const std::uint64_t k0 = spanTicks();
        result = sys->run(
            [&s, &srcTicks](ProcId p) -> std::optional<MemRef> {
                const std::uint64_t a = spanTicks();
                const MemRef r = s.nextFor(p);
                srcTicks += spanTicks() - a;
                return r;
            },
            refsPerProc);
        const std::uint64_t k1 = spanTicks();
        seconds = wallSeconds() - t0;
        srcSeconds = shareOf(srcTicks, k1 - k0, seconds);
    }

    std::uint64_t
    wanted() const
    {
        return refsPerProc * sys->config().numProcs;
    }
};

TimedJob
timedJob(const std::string &scheme, TimedProto proto,
         const SyntheticConfig &sc, ModuleId modules,
         std::uint64_t refsPerProc)
{
    TimedConfig tc;
    tc.protocol = proto;
    tc.numProcs = sc.numProcs;
    tc.numModules = modules;
    tc.perBlockConcurrency = true;
    tc.network = NetKind::Crossbar;
    TimedJob j;
    j.scheme = scheme;
    j.sys = std::make_unique<TimedSystem>(tc);
    j.stream = std::make_unique<SyntheticStream>(sc);
    j.refsPerProc = refsPerProc;
    return j;
}

/** References of j that count as failed: all of them unless every
 *  processor retired its whole stream under the oracle (which panics
 *  on any violation). */
std::uint64_t
timedFailures(const TimedJob &j)
{
    if (j.result.refsCompleted == j.wanted() && j.result.readsChecked > 0)
        return 0;
    std::fprintf(stderr,
                 "perfbench: timed %s retired %llu of %llu references\n",
                 j.scheme.c_str(),
                 static_cast<unsigned long long>(j.result.refsCompleted),
                 static_cast<unsigned long long>(j.wanted()));
    return j.wanted();
}

void
digestTimed(Digest &dg, const TimedJob &j)
{
    dg.add(j.scheme);
    dg.add(j.result);
    dg.add(static_cast<std::uint64_t>(
        j.sys->mergedDirHistogram(&DirCtrlStats::queueWait).p99()));
}

/** Run the jobs in order as the measured phase of rep. */
void
runTimedJobs(std::vector<TimedJob> &jobs, bool traced, Rep &rep,
             Digest &dg)
{
    for (TimedJob &j : jobs) {
        j.run(traced);
        const std::uint64_t refs = j.result.refsCompleted;
        rep.wallS += j.seconds;
        rep.refs += refs;
        rep.attempted += j.wanted();
        rep.failed += timedFailures(j);
        rep.events += j.result.eventsExecuted;
        rep.exact["check.reads_checked"] +=
            static_cast<double>(j.result.readsChecked);
        digestTimed(dg, j);
        if (!traced) {
            rep.timedRunS += j.seconds;
            continue;
        }
        LayerTime &src = rep.layers["trace.src_ns_per_ref"];
        src.seconds += j.srcSeconds;
        src.refs += refs;
        LayerTime &engine = rep.layers["timed." + j.scheme + ".ns_per_ref"];
        engine.seconds += j.seconds - j.srcSeconds;
        engine.refs += refs;
    }
}

/** A synthetic stream shaped like dir2bsim's: 96-block private working
 *  sets with a 24-block hot subset, w = 0.3, shared locality 0.5. */
SyntheticConfig
syntheticConfig(ProcId procs, double q, std::size_t sharedBlocks,
                std::uint64_t seed)
{
    SyntheticConfig sc;
    sc.numProcs = procs;
    sc.q = q;
    sc.w = 0.3;
    sc.sharedBlocks = sharedBlocks;
    sc.sharedLocality = 0.5;
    sc.privateBlocks = 96;
    sc.hotBlocks = 24;
    sc.seed = seed;
    return sc;
}

/** Functional systems with 32x4 caches. */
ProtoConfig
protoConfig(ProcId procs, ModuleId modules)
{
    ProtoConfig pc;
    pc.numProcs = procs;
    pc.numModules = modules;
    pc.cacheGeom.sets = 32;
    pc.cacheGeom.ways = 4;
    return pc;
}

} // namespace

Rep
funcSharing(std::uint64_t seed, bool traced)
{
    Rep rep;
    Digest dg;
    const double t0 = wallSeconds();
    const ProtoConfig pc = protoConfig(64, 16);
    const SyntheticConfig sc =
        syntheticConfig(64, 0.3, 256, mixSeed(seed, 1));
    std::vector<FuncJob> jobs;
    for (const char *scheme : {"two_bit", "two_bit_table", "full_map_table"}) {
        jobs.push_back(funcJob(scheme, pc, sharingRefs));
        jobs.back().stream = std::make_unique<SyntheticStream>(sc);
    }
    // Occupancy sampling feeds the §4.2 closed form (model.overhead_ratio).
    jobs[0].opts.sampleEvery = 1024;
    jobs[0].opts.sharedBlocks = sc.sharedBlocks;
    rep.buildS = rep.setupS = wallSeconds() - t0;

    runFuncJobs(jobs, traced, rep, dg);
    rep.failed += twinFailures(jobs[0], jobs[1]);

    FuncTally tally;
    tally.add(jobs[0].result, jobs[0].proto->dirStoreCounters());
    tally.report(rep.exact);
    rep.exact["model.overhead_ratio"] =
        overheadRatio(jobs[0].result, pc.numProcs);
    rep.digest = dg.value();
    return rep;
}

Rep
funcScatter(std::uint64_t seed, bool traced)
{
    Rep rep;
    Digest dg;
    SyntheticConfig sc = syntheticConfig(8, 0.02, 256, mixSeed(seed, 2));
    // A small footprint (16x the cache per processor, a 256 KiB
    // directory budget) keeps the process near 18 MiB resident, so less
    // of the run waits on the shared host's DRAM, while nearly every
    // miss still moves a directory page between tiers.
    sc.privateBlocks = 2048;
    sc.hotFraction = 0.5;
    sc.hotBlocks = 32;
    sc.spaceBlocks = 1ULL << 28;

    // The trace is named in the working directory only until set-up
    // has mapped it.
    const std::string path =
        "func_scatter." + std::to_string(::getpid()) + ".d2t";
    const double t0 = wallSeconds();
    {
        SyntheticStream s(sc);
        TraceWriter w(path);
        for (std::uint64_t i = 0; i < scatterRefs; ++i)
            w.append(*s.next());
        w.finish();
    }
    const double t1 = wallSeconds();
    const TraceReader reader(path);
    std::remove(path.c_str());

    ProtoConfig pc = protoConfig(8, 4);
    pc.dirRamBudget = scatterDirBudget;
    std::vector<FuncJob> jobs;
    for (const char *scheme : {"two_bit", "two_bit_table"}) {
        jobs.push_back(funcJob(scheme, pc, scatterRefs));
        jobs.back().reader = &reader;
    }
    const double t2 = wallSeconds();
    rep.recordS = t1 - t0;
    rep.buildS = t2 - t1;
    rep.setupS = t2 - t0;

    runFuncJobs(jobs, traced, rep, dg);
    rep.failed += twinFailures(jobs[0], jobs[1]);
    for (const FuncJob &j : jobs) {
        // A spill would leave the workload's definition and write a
        // temporary file outside the working directory.
        if (j.proto->dirStoreCounters().diskPageWrites) {
            std::fprintf(stderr, "perfbench: %s spilled directory pages "
                         "to disk\n", j.scheme.c_str());
            rep.failed += j.opts.numRefs;
        }
    }

    FuncTally tally;
    tally.add(jobs[0].result, jobs[0].proto->dirStoreCounters());
    tally.report(rep.exact);
    rep.digest = dg.value();
    return rep;
}

Rep
timedCrossbar(std::uint64_t seed, bool traced)
{
    Rep rep;
    Digest dg;
    const double t0 = wallSeconds();
    const SyntheticConfig sc = syntheticConfig(64, 0.2, 64, mixSeed(seed, 3));
    std::vector<TimedJob> jobs;
    jobs.push_back(timedJob("two_bit", TimedProto::TwoBit, sc, 16,
                            crossbarRefsPerProc));
    jobs.push_back(timedJob("full_map", TimedProto::FullMap, sc, 16,
                            crossbarRefsPerProc));
    rep.buildS = rep.setupS = wallSeconds() - t0;

    runTimedJobs(jobs, traced, rep, dg);

    TimedTally tally;
    tally.add(jobs[0].result, *jobs[0].sys);
    tally.report(rep.exact);
    rep.digest = dg.value();
    return rep;
}

Rep
sweepMixed(std::uint64_t seed, bool traced)
{
    struct FuncCell
    {
        const char *scheme;
        ProcId procs;
    };
    struct TimedCell
    {
        const char *scheme;
        TimedProto proto;
        ProcId procs;
        std::uint64_t refsPerProc;
    };
    // Cells of unequal size.  two_bit and two_bit_table cells of one
    // size share a stream, so each such pair is also a twin check.
    static constexpr FuncCell funcCells[] = {
        {"two_bit", 4},        {"two_bit", 16},        {"two_bit", 64},
        {"two_bit_table", 4},  {"two_bit_table", 16},  {"two_bit_table", 64},
        {"full_map_table", 16}, {"full_map_table", 64},
    };
    static constexpr TimedCell timedCells[] = {
        {"two_bit", TimedProto::TwoBit, 8, 6000},
        {"two_bit", TimedProto::TwoBit, 32, 2250},
        {"full_map", TimedProto::FullMap, 8, 6000},
        {"full_map", TimedProto::FullMap, 32, 2250},
    };

    Rep rep;
    Digest dg;
    const double t0 = wallSeconds();
    std::vector<FuncJob> funcs;
    for (const FuncCell &c : funcCells) {
        funcs.push_back(funcJob(
            c.scheme, protoConfig(c.procs, std::max<ProcId>(1, c.procs / 4)),
            sweepFuncRefs));
        funcs.back().stream = std::make_unique<SyntheticStream>(
            syntheticConfig(c.procs, 0.1, 256, mixSeed(seed, 100 + c.procs)));
    }
    std::vector<TimedJob> timeds;
    for (const TimedCell &c : timedCells)
        timeds.push_back(timedJob(
            c.scheme, c.proto,
            syntheticConfig(c.procs, 0.2, 64, mixSeed(seed, 200 + c.procs)),
            c.procs / 4, c.refsPerProc));
    rep.buildS = rep.setupS = wallSeconds() - t0;

    const std::size_t n = funcs.size() + timeds.size();
    std::vector<double> start(n);
    std::vector<double> end(n);
    std::vector<std::thread::id> worker(n);
    const double w0 = wallSeconds();
    parallelFor(
        0, n,
        [&](std::size_t i) {
            if (traced) {
                start[i] = wallSeconds();
                worker[i] = std::this_thread::get_id();
            }
            if (i < funcs.size())
                funcs[i].run(false);
            else
                timeds[i - funcs.size()].run(false);
            if (traced)
                end[i] = wallSeconds();
        },
        sweepThreads);
    rep.wallS = wallSeconds() - w0;
    rep.attempted = n;

    FuncTally funcTally;
    for (const FuncJob &j : funcs) {
        rep.refs += j.result.counts.refs();
        rep.failed += funcFailures(j) ? 1 : 0;
        rep.exact["check.reads_checked"] +=
            static_cast<double>(j.readsChecked);
        digestFunc(dg, j);
        if (j.scheme == "two_bit")
            funcTally.add(j.result, j.proto->dirStoreCounters());
    }
    for (std::size_t k = 0; k < 3; ++k)
        rep.failed += twinFailures(funcs[k], funcs[k + 3]) ? 1 : 0;
    TimedTally timedTally;
    for (const TimedJob &j : timeds) {
        rep.refs += j.result.refsCompleted;
        rep.failed += timedFailures(j) ? 1 : 0;
        rep.exact["check.reads_checked"] +=
            static_cast<double>(j.result.readsChecked);
        digestTimed(dg, j);
        if (j.scheme == "two_bit")
            timedTally.add(j.result, *j.sys);
    }
    funcTally.report(rep.exact);
    timedTally.report(rep.exact);
    rep.failed = std::min<std::uint64_t>(rep.failed, rep.attempted);

    if (traced) {
        double busy = 0.0;
        double cellMax = 0.0;
        std::map<std::thread::id, double> lastEnd;
        for (std::size_t i = 0; i < n; ++i) {
            busy += end[i] - start[i];
            cellMax = std::max(cellMax, end[i] - start[i]);
            double &e = lastEnd[worker[i]];
            e = std::max(e, end[i]);
        }
        // The tail runs from the first worker finding no cell left to
        // the end of the sweep; a worker that got no cell idles from
        // the start.
        double firstIdle = w0;
        if (lastEnd.size() == sweepThreads) {
            firstIdle = lastEnd.begin()->second;
            for (const auto &[id, e] : lastEnd)
                firstIdle = std::min(firstIdle, e);
        }
        rep.pool["parallel.busy_frac"] = busy / (sweepThreads * rep.wallS);
        rep.pool["parallel.tail_s"] = w0 + rep.wallS - firstIdle;
        rep.pool["parallel.cell_max_s"] = cellMax;
    }
    rep.digest = dg.value();
    return rep;
}

} // namespace perfbench
} // namespace dir2b
