#include "timed/timed_audit.hh"

#include <string>

#include "sim/stats.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"

namespace dir2b
{

Histogram
mergedCacheHistogram(
    const std::vector<std::unique_ptr<TwoBitCacheCtrl>> &caches,
    Histogram CacheCtrlStats::*h)
{
    Histogram out = caches.at(0)->stats().*h;
    for (std::size_t p = 1; p < caches.size(); ++p)
        out.merge(caches[p]->stats().*h);
    return out;
}

Histogram
mergedDirHistogram(
    const std::vector<std::unique_ptr<TimedDirCtrl>> &dirs,
    Histogram DirCtrlStats::*h)
{
    Histogram out = dirs.at(0)->stats().*h;
    for (std::size_t m = 1; m < dirs.size(); ++m)
        out.merge(dirs[m]->stats().*h);
    return out;
}

void
auditTimedFinalState(
    const std::vector<std::unique_ptr<TwoBitCacheCtrl>> &caches,
    const std::vector<std::unique_ptr<TimedDirCtrl>> &dirs,
    const TimedOracle &oracle)
{
    // Gather the unique dirty copy (if any) per block; clean copies
    // must equal memory at quiesce (every downgrade wrote back).
    FlatMap<Addr, Value> dirty;
    FlatMap<Addr, unsigned> dirtyCount;

    auto memValue = [&](Addr a) {
        const auto m = static_cast<ModuleId>(a % dirs.size());
        return dirs[m]->memory().peek(a);
    };

    for (ProcId p = 0; p < static_cast<ProcId>(caches.size());
         ++p) {
        caches[p]->forEachValidLine([&](const CacheLine &l) {
            if (l.dirty()) {
                dirty[l.addr] = l.value;
                ++dirtyCount[l.addr];
            } else {
                DIR2B_ASSERT(l.value == memValue(l.addr),
                             "clean copy of block ", l.addr,
                             " in cache ", p,
                             " differs from memory at quiesce");
            }
        });
    }
    for (const auto &[a, n] : dirtyCount) {
        DIR2B_ASSERT(n == 1, "block ", a, " dirty in ", n,
                     " caches at quiesce");
    }

    // Every written block's end value (dirty copy, else memory) must
    // be the newest version the oracle recorded.
    oracle.forEachWrittenBlock([&](Addr a) {
        const auto it = dirty.find(a);
        oracle.checkFinal(a, it != dirty.end() ? it->second
                                               : memValue(a));
    });
}

TimedRunResult
aggregateTimedResult(
    const std::vector<std::unique_ptr<TwoBitCacheCtrl>> &caches,
    const std::vector<std::unique_ptr<TimedDirCtrl>> &dirs,
    const TimedOracle &oracle, Tick finalTick,
    std::uint64_t refsCompleted, std::uint64_t eventsExecuted,
    std::uint64_t netMessages, std::uint64_t broadcasts,
    std::uint64_t netWaitCycles)
{
    TimedRunResult r;
    r.finalTick = finalTick;
    r.refsCompleted = refsCompleted;
    r.eventsExecuted = eventsExecuted;
    r.netMessages = netMessages;
    r.broadcasts = broadcasts;
    r.netWaitCycles = netWaitCycles;
    r.readsChecked = oracle.readsChecked();
    r.writesRecorded = oracle.writesRecorded();

    double latSum = 0.0;
    std::uint64_t latCount = 0;
    for (const auto &cc : caches) {
        const auto &s = cc->stats();
        r.stolenCycles += s.stolenCycles.value();
        r.filteredCmds += s.filteredCmds.value();
        r.mrequestConversions += s.mrequestConversions.value();
        latSum += s.latency.mean() *
                  static_cast<double>(s.latency.samples());
        latCount += s.latency.samples();
    }
    r.avgLatency = latCount ? latSum / static_cast<double>(latCount)
                            : 0.0;
    for (const auto &dc : dirs) {
        const auto &s = dc->stats();
        r.mreqDeleted += s.mreqDeleted.value();
        r.putsConsumed += s.putsConsumed.value();
        r.putsAwaited += s.putsAwaited.value();
        r.grantsFalse += s.grantsFalse.value();
        if (const TwoBitDirectory *dir = dc->twoBitDir())
            r.dirStore.add(*dir);
    }
    const Histogram lat =
        mergedCacheHistogram(caches, &CacheCtrlStats::latency);
    r.latencyP50 = lat.p50();
    r.latencyP95 = lat.p95();
    r.latencyP99 = lat.p99();
    return r;
}

void
dumpTimedStats(
    std::ostream &os,
    const std::vector<std::unique_ptr<TwoBitCacheCtrl>> &caches,
    const std::vector<std::unique_ptr<TimedDirCtrl>> &dirs)
{
    for (ProcId p = 0; p < static_cast<ProcId>(caches.size());
         ++p) {
        const CacheCtrlStats &s = caches[p]->stats();
        StatGroup g("cache" + std::to_string(p));
        g.addCounter("read_hits", &s.readHits);
        g.addCounter("write_hits", &s.writeHits);
        g.addCounter("read_misses", &s.readMisses);
        g.addCounter("write_misses", &s.writeMisses);
        g.addCounter("mrequests", &s.mrequests);
        g.addCounter("mreq_conversions", &s.mrequestConversions,
                     "BROADINV treated as MGRANTED(false)");
        g.addCounter("stale_grants_ignored", &s.staleGrantsIgnored);
        g.addCounter("stolen_cycles", &s.stolenCycles,
                     "cache cycles taken by remote commands");
        g.addCounter("filtered_cmds", &s.filteredCmds,
                     "absorbed by the duplicate directory");
        g.addCounter("invalidations", &s.invalidationsApplied);
        g.addCounter("queries_answered", &s.queriesAnswered);
        g.addCounter("writebacks", &s.writebacksSent);
        g.addHistogram("latency", &s.latency,
                       "request latency, cycles");
        g.addHistogram("grant_wait", &s.grantWait,
                       "MREQUEST to grant/conversion, cycles");
        g.addHistogram("data_wait", &s.dataWait,
                       "REQUEST to data arrival, cycles");
        g.dump(os);
    }
    for (ModuleId m = 0; m < static_cast<ModuleId>(dirs.size());
         ++m) {
        const DirCtrlStats &s = dirs[m]->stats();
        StatGroup g("ctrl" + std::to_string(m));
        g.addCounter("requests", &s.requests);
        g.addCounter("mrequests", &s.mrequests);
        g.addCounter("ejects_data", &s.ejectsData);
        g.addCounter("ejects_ignored", &s.ejectsIgnored);
        g.addCounter("broad_invs", &s.broadInvs);
        g.addCounter("broad_queries", &s.broadQueries);
        g.addCounter("directed_invs", &s.directedInvs);
        g.addCounter("purges", &s.purges);
        g.addCounter("grants_true", &s.grantsTrue);
        g.addCounter("grants_false", &s.grantsFalse);
        g.addCounter("mreq_deleted", &s.mreqDeleted,
                     "stale MREQUESTs deleted from the queue");
        g.addCounter("puts_consumed", &s.putsConsumed,
                     "queued EJECT(write) used as put()");
        g.addCounter("puts_awaited", &s.putsAwaited);
        g.addHistogram("queue_depth", &s.queueDepth);
        g.addHistogram("queue_wait", &s.queueWait,
                       "command queue residency, cycles");
        g.addHistogram("ack_wait", &s.ackWait,
                       "invalidation-ack barrier wait, cycles");
        g.addHistogram("put_wait", &s.putWait,
                       "query to answering put, cycles");
        g.dump(os);
    }
}

} // namespace dir2b
