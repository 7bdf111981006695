#include "harness.hh"

#include <vector>

namespace dir2b
{
namespace perfbench
{

namespace
{

double
per(std::uint64_t n, std::uint64_t d)
{
    return d ? static_cast<double>(n) / static_cast<double>(d) : 0.0;
}

} // namespace

void
Digest::add(const std::string &s)
{
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ULL;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

void
Digest::add(const RunResult &r)
{
    AccessCounts::forEachField(
        r.counts, [this](const char *, std::uint64_t v) { add(v); });
    add(r.sharedRefs);
    add(r.sharedWrites);
    add(r.sharedHits);
    for (const double o : r.stateOccupancy)
        add(o);
    add(r.stateSamples);
    add(r.perCacheUselessPerRef);
}

void
Digest::add(const DirStoreCounters &d)
{
    for (const std::uint64_t v :
         {d.ramBudgetBytes, d.residentBytes, d.compressedBytes,
          d.segmentBytes, d.hotPages, d.coldPages, d.diskPages,
          d.compressions, d.decompressions, d.diskPageWrites,
          d.diskPageReads})
        add(v);
}

void
Digest::add(const TimedRunResult &r)
{
    for (const std::uint64_t v :
         {r.finalTick, r.refsCompleted, r.eventsExecuted, r.stolenCycles,
          r.filteredCmds, r.mrequestConversions, r.mreqDeleted,
          r.putsConsumed, r.putsAwaited, r.grantsFalse, r.netMessages,
          r.broadcasts, r.netWaitCycles, r.readsChecked, r.writesRecorded,
          r.latencyP50, r.latencyP95, r.latencyP99})
        add(v);
    add(r.avgLatency);
    add(r.dirStore);
}

bool
sameCounts(const AccessCounts &a, const AccessCounts &b)
{
    std::vector<std::uint64_t> va;
    std::vector<std::uint64_t> vb;
    AccessCounts::forEachField(
        a, [&va](const char *, std::uint64_t v) { va.push_back(v); });
    AccessCounts::forEachField(
        b, [&vb](const char *, std::uint64_t v) { vb.push_back(v); });
    return va == vb;
}

void
FuncTally::add(const RunResult &r, const DirStoreCounters &d)
{
    counts += r.counts;
    dirResidentBytes += d.residentBytes;
    dirCompressions += d.compressions;
    dirDecompressions += d.decompressions;
}

void
FuncTally::report(std::map<std::string, double> &exact) const
{
    const std::uint64_t refs = counts.refs();
    exact["cache.miss_ratio"] = counts.missRatio();
    exact["core.broadcasts_per_ref"] = per(counts.broadcasts, refs);
    exact["core.useless_per_ref"] = counts.uselessPerRef();
    exact["proto.net_msgs_per_ref"] = per(counts.netMessages, refs);
    exact["proto.setstates_per_ref"] = per(counts.setstates, refs);
    exact["core.dir_resident_bytes"] = static_cast<double>(dirResidentBytes);
    exact["core.dir_compressions"] = static_cast<double>(dirCompressions);
    exact["core.dir_decompressions"] =
        static_cast<double>(dirDecompressions);
}

void
TimedTally::add(const TimedRunResult &r, const TimedSystem &sys)
{
    cycles += r.finalTick;
    refs += r.refsCompleted;
    events += r.eventsExecuted;
    stolenCycles += r.stolenCycles;
    conversions += r.mrequestConversions;
    netMessages += r.netMessages;
    netWaitCycles += r.netWaitCycles;
    const Histogram lat = sys.mergedCacheHistogram(&CacheCtrlStats::latency);
    const Histogram qw = sys.mergedDirHistogram(&DirCtrlStats::queueWait);
    if (latency)
        latency->merge(lat);
    else
        latency = lat;
    if (queueWait)
        queueWait->merge(qw);
    else
        queueWait = qw;
}

void
TimedTally::report(std::map<std::string, double> &exact) const
{
    exact["sim.events_per_ref"] = per(events, refs);
    exact["timed.cycles"] = static_cast<double>(cycles);
    exact["timed.latency_p50_cycles"] =
        latency ? static_cast<double>(latency->p50()) : 0.0;
    exact["timed.latency_p99_cycles"] =
        latency ? static_cast<double>(latency->p99()) : 0.0;
    exact["timed.queue_wait_p99_cycles"] =
        queueWait ? static_cast<double>(queueWait->p99()) : 0.0;
    exact["net.port_wait_per_msg"] = per(netWaitCycles, netMessages);
    exact["timed.stolen_cycles_per_ref"] = per(stolenCycles, refs);
    exact["timed.mreq_conversions"] = static_cast<double>(conversions);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace perfbench
} // namespace dir2b
