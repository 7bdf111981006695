#include "proto/protocol.hh"

#include "util/logging.hh"

namespace dir2b
{

Protocol::Protocol(std::string name, const ProtoConfig &cfg)
    : cfg_(cfg),
      addrMap_(cfg.numModules),
      caches_(cfg.numProcs, cfg.cacheGeom),
      name_(std::move(name)),
      recvCmds_(cfg.numProcs, 0),
      recvUseless_(cfg.numProcs, 0),
      broadcastsBy_(cfg.numProcs, 0),
      usefulBroadcastsTo_(cfg.numProcs, 0),
      refsBy_(cfg.numProcs, 0)
{
    if (cfg_.numProcs < 1)
        DIR2B_FATAL("protocol '", name_, "' needs at least one processor");
}

Value
Protocol::access(ProcId k, Addr a, bool write, Value wval)
{
    DIR2B_ASSERT(k < cfg_.numProcs, "access from unknown processor ", k);
    const AccessCounts before = counts_;
    if (write)
        ++counts_.writes;
    else
        ++counts_.reads;
    ++refsBy_[k];

    const Value result = doAccess(k, a, write, wval);

    lastDelta_ = counts_ - before;
    return result;
}

void
Protocol::deliverCmd(ProcId p, bool useful)
{
    ++counts_.stolenCycles;
    ++recvCmds_[p];
    if (!useful) {
        ++counts_.uselessCmds;
        ++recvUseless_[p];
    }
}

template <typename Visit>
void
Protocol::broadcast(Addr a, ProcId sender, bool snoopFiltered,
                    Visit &&visit)
{
    const std::uint64_t deliveries = cfg_.numProcs - 1;
    std::uint64_t holders = 0;
    std::uint64_t useful = 0;
    caches_.forEachHolder(a, sender, [&](ProcId p) {
        ++holders;
        if (visit(p)) {
            ++useful;
            ++usefulBroadcastsTo_[p];
        }
    });
    ++counts_.broadcasts;
    ++broadcastCount_;
    ++broadcastsBy_[sender];
    counts_.broadcastCmds += deliveries;
    counts_.netMessages += deliveries;
    counts_.uselessCmds += deliveries - useful;
    if (snoopFiltered) {
        counts_.stolenCycles += holders;
        counts_.filteredCmds += deliveries - holders;
    } else {
        counts_.stolenCycles += deliveries;
    }
}

void
Protocol::broadcastInvalidate(Addr a, ProcId except, bool snoopFiltered)
{
    broadcast(a, except, snoopFiltered, [&](ProcId i) {
        DIR2B_ASSERT(!caches_.peek(i, a)->dirty(),
                     "BROADINV found a dirty copy of ", a, " in cache ",
                     i, " while the directory said clean");
        caches_.invalidate(i, a);
        ++counts_.invalidations;
        return true;
    });
}

Value
Protocol::broadcastQuery(Addr a, ProcId requester, RW rw,
                         bool snoopFiltered)
{
    bool found = false;
    Value data = 0;
    broadcast(a, requester, snoopFiltered, [&](ProcId i) {
        CacheLine *l = caches_.lookup(i, a, false);
        if (!l->dirty())
            return false;
        DIR2B_ASSERT(!found, "two owners of modified block ", a);
        found = true;
        data = l->value;
        ++counts_.purges;
        // put(b_i, a) back to the controller...
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        // ...which writes memory back (both for read and write misses;
        // §3.2.2 case 2 and §3.2.3 case 3).
        mem_.write(a, data);
        ++counts_.memWrites;
        ++counts_.writebacks;
        if (rw == RW::Read) {
            // Owner resets its modified bit and keeps a clean copy.
            l->state = LineState::Shared;
        } else {
            // Owner resets its valid bit.
            caches_.invalidate(i, a);
            ++counts_.invalidations;
        }
        return true;
    });
    DIR2B_ASSERT(found, "BROADQUERY(", a,
                 ") found no owner: directory/cache disagreement");
    return data;
}

void
Protocol::flushCache(ProcId)
{
    DIR2B_FATAL("protocol '", name_, "' does not implement flushCache");
}

} // namespace dir2b
