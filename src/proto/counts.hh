/**
 * @file
 * Command and traffic accounting for the functional protocol tier.
 *
 * The paper's evaluation (§4.2) counts "extra cache commands" — the
 * broadcast deliveries that reach caches holding no copy of the block
 * and therefore do pure overhead work.  AccessCounts captures that
 * quantity (uselessCmds) together with every other event class the
 * experiments report, using one consistent convention across all eight
 * protocols:
 *
 *  - a broadcast reaching n-1 caches contributes n-1 broadcastCmds, of
 *    which those at caches without a copy are uselessCmds;
 *  - a directed command (full-map INVALIDATE/PURGE) contributes one
 *    directedCmds and must hit a real copy;
 *  - every block movement (memory or cache-to-cache) is a dataTransfer;
 *  - netMessages counts each point-to-point delivery on the network.
 */

#ifndef DIR2B_PROTO_COUNTS_HH
#define DIR2B_PROTO_COUNTS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/stats.hh"

namespace dir2b
{

/**
 * The AccessCounts field list: member, kind, description, in the
 * order of the struct (and of the sweep JSON, the series and the
 * perfbench digests).  Adding a counter is one line here.
 */
#define DIR2B_ACCESS_COUNTS(X)                                              \
    /* Reference classification. */                                        \
    X(reads, Counter, "processor reads")                                    \
    X(writes, Counter, "processor writes")                                  \
    X(readHits, Counter, "reads that hit")                                  \
    X(readMisses, Counter, "reads that missed")                             \
    X(writeHits, Counter, "writes that hit")                                \
    X(writeMisses, Counter, "writes that missed")                           \
    X(writeHitsClean, Counter, "write hits on clean lines (3.2.4)")         \
    /* Coherence transactions. */                                           \
    X(requests, Counter, "REQUEST commands issued")                         \
    X(mrequests, Counter, "MREQUEST commands issued")                       \
    X(ejects, Counter, "EJECT notifications issued")                        \
    X(setstates, Counter, "directory SETSTATE operations")                  \
    /* Commands reaching caches. */                                         \
    X(broadcasts, Counter, "broadcast operations")                          \
    X(broadcastCmds, Counter, "deliveries of those broadcasts")             \
    X(uselessCmds, Counter, "deliveries that found no copy")                \
    X(directedCmds, Counter, "full-map style directed commands")            \
    X(invalidations, Counter, "cache copies invalidated")                   \
    X(purges, Counter, "owner downgrades/flushes")                          \
    /* Data movement. */                                                    \
    X(writebacks, Counter, "dirty data returned to memory")                 \
    X(memReads, Counter, "block fetches from memory")                       \
    X(memWrites, Counter, "block writes to memory")                         \
    X(cacheTransfers, Counter, "cache-to-cache supplies")                   \
    X(dataTransfers, Counter, "all get/put block movements")                \
    X(wordWrites, Counter, "write-through word traffic")                    \
    /* Overheads at caches. */                                              \
    X(stolenCycles, Counter, "cache cycles taken by remote commands")       \
    X(snoopChecks, Counter, "bus-scheme per-miss tag checks")               \
    X(filteredCmds, Counter, "absorbed by BIAS/snoop filters")              \
    /* Scheme-specific bookkeeping. */                                      \
    X(dirUpdates, Counter, "Tang central-copy update messages")             \
    X(dirSearches, Counter, "Tang per-request directory scans")             \
    X(tbHits, Counter, "translation-buffer hits (4.4)")                     \
    X(tbMisses, Counter, "translation-buffer misses")                       \
    X(netMessages, Counter, "total point-to-point deliveries")

/** Event counters accumulated over a run (or a single access delta). */
struct AccessCounts
{
#define X(m, kind, desc) std::uint64_t m = 0;
    DIR2B_ACCESS_COUNTS(X)
#undef X

    /** Total references. */
    std::uint64_t refs() const { return reads + writes; }

    /** Total misses. */
    std::uint64_t misses() const { return readMisses + writeMisses; }

    /** Overall miss ratio. */
    double
    missRatio() const
    {
        return refs() ? static_cast<double>(misses()) / refs() : 0.0;
    }

    /** The paper's T_SUM estimate: extra commands per memory request. */
    double
    uselessPerRef() const
    {
        return refs() ? static_cast<double>(uselessCmds) / refs() : 0.0;
    }

    AccessCounts &operator+=(const AccessCounts &o);
    AccessCounts operator-(const AccessCounts &o) const;

    /**
     * Visit every field with its name, in list order.
     * The visitor receives (name, value).
     */
    static void forEachField(
        const AccessCounts &c,
        const std::function<void(const char *, std::uint64_t)> &fn);
};

/** The AccessCounts field list as data. */
inline constexpr StatField<AccessCounts, std::uint64_t>
    accessCountFields[] = {
#define X(m, kind, desc) {&AccessCounts::m, #m, desc, MetricKind::kind},
        DIR2B_ACCESS_COUNTS(X)
#undef X
};

} // namespace dir2b

#endif // DIR2B_PROTO_COUNTS_HH
