#include "check/differ.hh"

#include <deque>
#include <set>
#include <sstream>

#include "check/invariants.hh"
#include "check/oracle.hh"
#include "proto/protocol_factory.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "util/parallel.hh"

namespace dir2b
{
namespace
{

ProtoConfig
makeProtoConfig(const DiffConfig &cfg)
{
    ProtoConfig pc;
    pc.numProcs = cfg.numProcs;
    pc.numModules = cfg.numModules;
    pc.cacheGeom.sets = cfg.sets;
    pc.cacheGeom.ways = cfg.ways;
    // Small translation buffer: exercises both the exact-holder-set
    // path and the eviction fallback to broadcast.
    pc.tbCapacity = 64;
    // Exercise the classical scheme's BIAS filter.
    pc.biasCapacity = 4;
    // The software scheme is only coherent when shared-writeable
    // blocks are classified non-cacheable; synthetic traces keep all
    // cross-processor traffic in the shared region.
    pc.nonCacheableBase = sharedRegionBase;
    return pc;
}

/** Current per-block image: the unique dirty copy, else memory. */
Value
imageOf(const Protocol &p, Addr a)
{
    for (ProcId k = 0; k < p.numProcs(); ++k) {
        const CacheLine *l = p.cache(k).peek(a);
        if (l && l->valid() && l->dirty())
            return l->value;
    }
    return p.memValue(a);
}

std::vector<Addr>
touchedBlocks(const std::vector<MemRef> &trace)
{
    std::set<Addr> s;
    for (const MemRef &r : trace)
        s.insert(r.addr);
    return {s.begin(), s.end()};
}

/** Feed the trace through the timed two-bit tier; its per-location
 *  oracle panics on any coherence violation, so the checks here are
 *  the lockstep consistency conditions. */
std::optional<DiffFailure>
runTimedLockstep(const DiffConfig &cfg, const std::vector<MemRef> &trace)
{
    TimedConfig tc;
    tc.protocol = TimedProto::TwoBit;
    tc.numProcs = cfg.numProcs;
    tc.numModules = cfg.numModules;
    tc.cacheGeom.sets = cfg.sets;
    tc.cacheGeom.ways = cfg.ways;

    std::vector<std::deque<MemRef>> perProc(cfg.numProcs);
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const MemRef &r : trace) {
        perProc.at(r.proc).push_back(r);
        ++(r.write ? writes : reads);
    }

    TimedSystem sys(tc);
    const TimedRunResult r =
        sys.run([&perProc](ProcId p) -> std::optional<MemRef> {
            if (perProc[p].empty())
                return std::nullopt;
            MemRef ref = perProc[p].front();
            perProc[p].pop_front();
            return ref;
        }, trace.size());

    auto fail = [&](const std::string &kind, const std::string &detail) {
        return DiffFailure{"timed_two_bit", kind, trace.size(), detail};
    };
    if (r.refsCompleted != trace.size()) {
        std::ostringstream os;
        os << "timed tier completed " << r.refsCompleted << " of "
           << trace.size() << " references";
        return fail("timed-incomplete", os.str());
    }
    if (r.readsChecked != reads || r.writesRecorded != writes) {
        std::ostringstream os;
        os << "timed oracle saw " << r.readsChecked << " reads / "
           << r.writesRecorded << " writes, trace has " << reads
           << " / " << writes;
        return fail("timed-final", os.str());
    }
    return std::nullopt;
}

} // namespace

std::vector<std::string>
functionalCheckProtocols()
{
    auto names = protocolNames();
    names.push_back("two_bit_nop1");
    return names;
}

std::optional<DiffFailure>
diffTrace(const DiffConfig &cfg, const std::vector<MemRef> &trace,
          const ProtocolMaker &maker)
{
    ProtocolMaker makeOne = maker;
    if (!makeOne) {
        makeOne = [](const std::string &n, const ProtoConfig &c) {
            return makeProtocol(n, c);
        };
    }
    const auto names =
        cfg.protocols.empty() ? functionalCheckProtocols()
                              : cfg.protocols;
    const ProtoConfig pc = makeProtoConfig(cfg);
    const std::vector<Addr> blocks = touchedBlocks(trace);

    std::vector<std::unique_ptr<Protocol>> protos;
    protos.reserve(names.size());
    for (const auto &n : names)
        protos.push_back(makeOne(n, pc));

    // Lockstep replay: one shared oracle; every scheme sees the same
    // write-value sequence, so final images must agree bit-for-bit.
    CoherenceOracle oracle;
    for (std::size_t step = 0; step < trace.size(); ++step) {
        const MemRef &ref = trace[step];
        const Value wval = ref.write ? oracle.freshValue() : 0;
        for (std::size_t i = 0; i < protos.size(); ++i) {
            const Value v =
                protos[i]->access(ref.proc, ref.addr, ref.write, wval);
            if (!ref.write && v != oracle.expected(ref.addr)) {
                std::ostringstream os;
                os << toString(ref) << " returned " << v
                   << " but the most recently written value is "
                   << oracle.expected(ref.addr);
                return DiffFailure{names[i], "stale-read", step,
                                   os.str()};
            }
        }
        if (ref.write)
            oracle.onWrite(ref.addr, wval);

        const bool structural =
            cfg.structuralEvery &&
            (step + 1) % cfg.structuralEvery == 0;
        if (structural) {
            for (std::size_t i = 0; i < protos.size(); ++i) {
                if (auto v = checkProtocolState(*protos[i], oracle,
                                                blocks))
                    return DiffFailure{names[i], v->kind, step,
                                       v->detail};
                if (cfg.nativeInvariants) {
                    protos[i]->checkInvariants();
                    protos[i]->bank().checkIndex();
                }
            }
        }
    }

    // End-of-run: structural state, then the cross-scheme image diff.
    for (std::size_t i = 0; i < protos.size(); ++i) {
        if (auto v = checkProtocolState(*protos[i], oracle, blocks))
            return DiffFailure{names[i], v->kind, trace.size(),
                               v->detail};
        if (cfg.nativeInvariants) {
            protos[i]->checkInvariants();
            protos[i]->bank().checkIndex();
        }
    }
    for (const Addr a : blocks) {
        const Value want = oracle.expected(a);
        for (std::size_t i = 0; i < protos.size(); ++i) {
            const Value got = imageOf(*protos[i], a);
            if (got != want) {
                std::ostringstream os;
                os << "final image of block " << a << " is " << got
                   << " but the most recently written value is "
                   << want
                   << (i ? std::string(" (") + names[0] + " agrees "
                           "with the oracle)" : std::string());
                return DiffFailure{names[i], "final-image",
                                   trace.size(), os.str()};
            }
        }
    }

    if (cfg.withTimed)
        return runTimedLockstep(cfg, trace);
    return std::nullopt;
}

ReplaySeed
makeSeed(const DiffConfig &cfg, const std::vector<MemRef> &trace)
{
    ReplaySeed seed;
    seed.numProcs = cfg.numProcs;
    seed.numModules = cfg.numModules;
    seed.sets = cfg.sets;
    seed.ways = cfg.ways;
    seed.protocols = cfg.protocols;
    seed.trace = trace;
    return seed;
}

std::optional<DiffFailure>
replaySeed(const ReplaySeed &seed, bool withTimed)
{
    DiffConfig cfg;
    cfg.numProcs = seed.numProcs;
    cfg.numModules = seed.numModules;
    cfg.sets = seed.sets;
    cfg.ways = seed.ways;
    cfg.protocols = seed.protocols;
    cfg.withTimed = withTimed;
    return diffTrace(cfg, seed.trace);
}

std::vector<MemRef>
fuzzTrace(const FuzzConfig &cfg, std::uint64_t index)
{
    Rng rng = taskRng(cfg.baseSeed, index);
    SyntheticConfig sc;
    sc.numProcs = cfg.diff.numProcs;
    sc.q = cfg.q;
    sc.w = cfg.w;
    sc.sharedBlocks = cfg.sharedBlocks;
    sc.privateBlocks = cfg.privateBlocks;
    sc.hotBlocks = cfg.hotBlocks;
    sc.spaceBlocks = cfg.spaceBlocks;
    sc.seed = rng.next();
    SyntheticStream stream(sc);
    return recordStream(stream, cfg.refsPerSeed);
}

namespace
{

/** First differing AccessCounts field, as "name: ref vs subject". */
std::optional<std::string>
countsDiff(const AccessCounts &ref, const AccessCounts &sub)
{
    std::optional<std::string> diff;
    std::vector<std::pair<const char *, std::uint64_t>> refFields;
    AccessCounts::forEachField(
        ref, [&](const char *n, std::uint64_t v) {
            refFields.emplace_back(n, v);
        });
    std::size_t i = 0;
    AccessCounts::forEachField(
        sub, [&](const char *n, std::uint64_t v) {
            if (!diff && refFields[i].second != v) {
                std::ostringstream os;
                os << n << ": " << refFields[i].second << " vs " << v;
                diff = os.str();
            }
            ++i;
        });
    return diff;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
lockstepPairs()
{
    return {{"two_bit", "two_bit_table"}};
}

std::optional<DiffFailure>
lockstepTrace(const LockstepConfig &cfg,
              const std::vector<MemRef> &trace)
{
    ProtoConfig pc;
    pc.numProcs = cfg.numProcs;
    pc.numModules = cfg.numModules;
    pc.cacheGeom.sets = cfg.sets;
    pc.cacheGeom.ways = cfg.ways;
    pc.dirRamBudget = cfg.dirRamBudget;

    const auto ref = makeProtocol(cfg.reference, pc);
    const auto sub = makeProtocol(cfg.subject, pc);

    auto fail = [&](const std::string &kind, std::size_t step,
                    const std::string &detail) {
        return DiffFailure{cfg.subject, kind, step, detail};
    };

    CoherenceOracle oracle;
    for (std::size_t step = 0; step < trace.size(); ++step) {
        const MemRef &r = trace[step];
        const Value wval = r.write ? oracle.freshValue() : 0;
        const Value vRef = ref->access(r.proc, r.addr, r.write, wval);
        const Value vSub = sub->access(r.proc, r.addr, r.write, wval);
        if (r.write)
            oracle.onWrite(r.addr, wval);

        if (vRef != vSub) {
            std::ostringstream os;
            os << toString(r) << " returned " << vRef << " ("
               << cfg.reference << ") vs " << vSub << " ("
               << cfg.subject << ")";
            return fail("lockstep-value", step, os.str());
        }
        if (auto d = countsDiff(ref->lastDelta(), sub->lastDelta())) {
            std::ostringstream os;
            os << toString(r) << " delta diverged: " << *d;
            return fail("lockstep-delta", step, os.str());
        }

        if (cfg.flushEvery && (step + 1) % cfg.flushEvery == 0) {
            const ProcId p = static_cast<ProcId>(
                ((step + 1) / cfg.flushEvery) % cfg.numProcs);
            ref->flushCache(p);
            sub->flushCache(p);
        }
    }

    if (auto d = countsDiff(ref->counts(), sub->counts()))
        return fail("lockstep-counts", trace.size(),
                    "cumulative counters diverged: " + *d);

    for (ProcId p = 0; p < cfg.numProcs; ++p) {
        if (ref->cmdsReceivedBy(p) != sub->cmdsReceivedBy(p) ||
            ref->uselessReceivedBy(p) != sub->uselessReceivedBy(p)) {
            std::ostringstream os;
            os << "per-processor command counters of P" << p
               << " diverged: recv " << ref->cmdsReceivedBy(p)
               << "/" << ref->uselessReceivedBy(p) << " vs "
               << sub->cmdsReceivedBy(p) << "/"
               << sub->uselessReceivedBy(p);
            return fail("lockstep-recv", trace.size(), os.str());
        }
    }

    for (const Addr a : touchedBlocks(trace)) {
        for (ProcId p = 0; p < cfg.numProcs; ++p) {
            const CacheLine *lr = ref->cache(p).peek(a);
            const CacheLine *ls = sub->cache(p).peek(a);
            const bool vr = lr && lr->valid();
            const bool vs = ls && ls->valid();
            if (vr != vs || (vr && (lr->state != ls->state ||
                                    lr->value != ls->value))) {
                std::ostringstream os;
                os << "cache " << p << " line for block " << a
                   << " diverged: "
                   << (vr ? toString(lr->state) : "Invalid") << " vs "
                   << (vs ? toString(ls->state) : "Invalid");
                return fail("lockstep-line", trace.size(), os.str());
            }
        }
        if (imageOf(*ref, a) != imageOf(*sub, a) ||
            ref->memValue(a) != sub->memValue(a)) {
            std::ostringstream os;
            os << "final image of block " << a << " diverged: "
               << imageOf(*ref, a) << "/" << ref->memValue(a)
               << " vs " << imageOf(*sub, a) << "/"
               << sub->memValue(a);
            return fail("lockstep-image", trace.size(), os.str());
        }
    }
    return std::nullopt;
}

std::optional<DiffFailure>
lockstepFuzz(const FuzzConfig &cfg, unsigned threads)
{
    const auto pairs = lockstepPairs();
    // Task grid: pairs x {no flush, flushEvery=97, budgeted} x seeds.
    constexpr std::size_t modes = 3;
    const std::size_t variants = pairs.size() * modes;
    std::vector<std::optional<DiffFailure>> verdicts(
        variants * cfg.numSeeds);

    parallelFor(0, verdicts.size(), [&](std::size_t i) {
        const std::size_t seed = i / variants;
        const std::size_t variant = i % variants;
        LockstepConfig lc;
        const std::size_t mode = variant % modes;
        lc.reference = pairs[variant / modes].first;
        lc.subject = pairs[variant / modes].second;
        lc.numProcs = cfg.diff.numProcs;
        lc.numModules = cfg.diff.numModules;
        lc.sets = cfg.diff.sets;
        lc.ways = cfg.diff.ways;
        // A prime stride so flushes drift across the trace phases.
        lc.flushEvery = mode == 1 ? 97 : 0;
        FuzzConfig traceCfg = cfg;
        if (mode == 2) {
            lc.dirRamBudget = 2048;
            traceCfg.spaceBlocks = std::uint64_t{1} << 20;
        }
        verdicts[i] = lockstepTrace(lc, fuzzTrace(traceCfg, seed));
    }, threads);

    for (const auto &v : verdicts)
        if (v)
            return v;
    return std::nullopt;
}

FuzzResult
fuzzMany(const FuzzConfig &cfg, unsigned threads,
         const ProtocolMaker &maker)
{
    std::vector<std::optional<DiffFailure>> verdicts(cfg.numSeeds);
    std::vector<std::vector<MemRef>> failing(cfg.numSeeds);

    parallelFor(0, cfg.numSeeds, [&](std::size_t i) {
        auto trace = fuzzTrace(cfg, i);
        verdicts[i] = diffTrace(cfg.diff, trace, maker);
        if (verdicts[i])
            failing[i] = std::move(trace);
    }, threads);

    FuzzResult res;
    res.seedsRun = cfg.numSeeds;
    res.refsReplayed = cfg.numSeeds * cfg.refsPerSeed;
    for (std::size_t i = 0; i < cfg.numSeeds; ++i) {
        if (verdicts[i])
            res.failures.push_back(
                {i, *verdicts[i], std::move(failing[i])});
    }
    return res;
}

} // namespace dir2b
