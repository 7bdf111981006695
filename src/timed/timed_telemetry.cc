#include "timed/timed_telemetry.hh"

#include "core/two_bit_directory.hh"
#include "obs/telemetry.hh"
#include "sim/event_queue.hh"
#include "timed/cache_ctrl.hh"
#include "timed/dir_ctrl_base.hh"
#include "timed/timed_net.hh"

namespace dir2b
{

namespace
{

const TimedTelemetryView &
view(const void *ctx)
{
    return *static_cast<const TimedTelemetryView *>(ctx);
}

/** Sum one CacheCtrlStats counter over every cache. */
template <Counter CacheCtrlStats::*M>
std::uint64_t
cacheSum(const void *ctx)
{
    std::uint64_t s = 0;
    for (const auto &c : *view(ctx).caches)
        s += (c->stats().*M).value();
    return s;
}

/** Sum one DirCtrlStats counter over every controller. */
template <Counter DirCtrlStats::*M>
std::uint64_t
dirSum(const void *ctx)
{
    std::uint64_t s = 0;
    for (const auto &d : *view(ctx).dirs)
        s += (d->stats().*M).value();
    return s;
}

/** Aggregate the tiered directory-storage counters (two-bit scheme;
 *  all-zero for protocols without a tiered directory). */
DirStoreCounters
dirStoreAgg(const void *ctx)
{
    DirStoreCounters c;
    for (const auto &d : *view(ctx).dirs)
        if (const TwoBitDirectory *tb = d->twoBitDir())
            c.add(*tb);
    return c;
}

} // namespace

void
registerTimedMetrics(MetricRegistry &reg, const TimedTelemetryView &v)
{
    const void *ctx = &v;
    const auto counter = MetricKind::Counter;
    const auto gauge = MetricKind::Gauge;

    // Progress: completed references (ProgressMeter reads this name).
    reg.add("refs.completed", counter,
            +[](const void *c) { return *view(c).completed; }, ctx);

    // Event-kernel occupancy.
    reg.add("kernel.executed", counter,
            +[](const void *c) { return view(c).queue->executed(); },
            ctx);
    reg.add("kernel.pending", gauge,
            +[](const void *c) {
                return std::uint64_t{view(c).queue->pending()};
            },
            ctx);

    // Network utilisation.
    reg.add("net.messages", counter,
            +[](const void *c) { return view(c).net->messagesSent(); },
            ctx);
    reg.add("net.broadcasts", counter,
            +[](const void *c) { return view(c).net->broadcastsSent(); },
            ctx);
    reg.add("net.data_messages", counter,
            +[](const void *c) { return view(c).net->dataMessages(); },
            ctx);
    reg.add("net.port_wait_cycles", counter,
            +[](const void *c) { return view(c).net->portWaitCycles(); },
            ctx);
    reg.add("net.bus_busy_cycles", counter,
            +[](const void *c) { return view(c).net->busBusyCycles(); },
            ctx);

    // Per-cache protocol activity (summed over caches).
    reg.add("cache.read_hits", counter,
            &cacheSum<&CacheCtrlStats::readHits>, ctx);
    reg.add("cache.write_hits", counter,
            &cacheSum<&CacheCtrlStats::writeHits>, ctx);
    reg.add("cache.read_misses", counter,
            &cacheSum<&CacheCtrlStats::readMisses>, ctx);
    reg.add("cache.write_misses", counter,
            &cacheSum<&CacheCtrlStats::writeMisses>, ctx);
    reg.add("cache.mrequests", counter,
            &cacheSum<&CacheCtrlStats::mrequests>, ctx);
    reg.add("cache.mrequest_conversions", counter,
            &cacheSum<&CacheCtrlStats::mrequestConversions>, ctx);
    reg.add("cache.invalidations_applied", counter,
            &cacheSum<&CacheCtrlStats::invalidationsApplied>, ctx);
    reg.add("cache.queries_answered", counter,
            &cacheSum<&CacheCtrlStats::queriesAnswered>, ctx);
    reg.add("cache.writebacks_sent", counter,
            &cacheSum<&CacheCtrlStats::writebacksSent>, ctx);
    reg.add("cache.stolen_cycles", counter,
            &cacheSum<&CacheCtrlStats::stolenCycles>, ctx);
    reg.add("cache.filtered_cmds", counter,
            &cacheSum<&CacheCtrlStats::filteredCmds>, ctx);

    // Controller activity (summed over modules).  grants_false is the
    // §4.2 useless-command numerator: MGRANTED(false) round trips that
    // did no sharing work.
    reg.add("dir.requests", counter,
            &dirSum<&DirCtrlStats::requests>, ctx);
    reg.add("dir.mrequests", counter,
            &dirSum<&DirCtrlStats::mrequests>, ctx);
    reg.add("dir.broad_invs", counter,
            &dirSum<&DirCtrlStats::broadInvs>, ctx);
    reg.add("dir.broad_queries", counter,
            &dirSum<&DirCtrlStats::broadQueries>, ctx);
    reg.add("dir.directed_invs", counter,
            &dirSum<&DirCtrlStats::directedInvs>, ctx);
    reg.add("dir.purges", counter, &dirSum<&DirCtrlStats::purges>,
            ctx);
    reg.add("dir.grants_true", counter,
            &dirSum<&DirCtrlStats::grantsTrue>, ctx);
    reg.add("dir.grants_false", counter,
            &dirSum<&DirCtrlStats::grantsFalse>, ctx);
    reg.add("dir.mreq_deleted", counter,
            &dirSum<&DirCtrlStats::mreqDeleted>, ctx);
    reg.add("dir.queue_depth", gauge,
            +[](const void *c) {
                std::uint64_t s = 0;
                for (const auto &d : *view(c).dirs)
                    s += d->queueDepth();
                return s;
            },
            ctx);

    // Tiered directory storage: occupancy gauges + movement counters.
    reg.add("dirstore.resident_bytes", gauge,
            +[](const void *c) { return dirStoreAgg(c).residentBytes; },
            ctx);
    reg.add("dirstore.compressed_bytes", gauge,
            +[](const void *c) {
                return dirStoreAgg(c).compressedBytes;
            },
            ctx);
    reg.add("dirstore.segment_bytes", gauge,
            +[](const void *c) { return dirStoreAgg(c).segmentBytes; },
            ctx);
    reg.add("dirstore.hot_pages", gauge,
            +[](const void *c) { return dirStoreAgg(c).hotPages; },
            ctx);
    reg.add("dirstore.cold_pages", gauge,
            +[](const void *c) { return dirStoreAgg(c).coldPages; },
            ctx);
    reg.add("dirstore.disk_pages", gauge,
            +[](const void *c) { return dirStoreAgg(c).diskPages; },
            ctx);
    reg.add("dirstore.compressions", counter,
            +[](const void *c) { return dirStoreAgg(c).compressions; },
            ctx);
    reg.add("dirstore.decompressions", counter,
            +[](const void *c) {
                return dirStoreAgg(c).decompressions;
            },
            ctx);
}

} // namespace dir2b
