#include "core/two_bit_wt_protocol.hh"

#include "util/logging.hh"

namespace dir2b
{

TwoBitWtProtocol::TwoBitWtProtocol(const ProtoConfig &cfg)
    : Protocol("two_bit_wt", cfg),
      dirs_(makeTwoBitDirectories(cfg.numModules, cfg.dirRamBudget))
{}

void
TwoBitWtProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;
    DIR2B_ASSERT(!victim.dirty(),
                 "write-through cache holds a dirty line");
    const Addr olda = victim.addr;
    TwoBitDirectory &dir = dirFor(olda);
    ++counts_.ejects;
    ++counts_.netMessages;
    if (dir.get(olda) == GlobalState::Present1) {
        dir.set(olda, GlobalState::Absent);
        ++counts_.setstates;
    }
    caches_.invalidate(k, olda);
}

Value
TwoBitWtProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    TwoBitDirectory &dir = dirFor(a);

    if (!write) {
        if (CacheLine *l = caches_.lookup(k, a)) {
            ++counts_.readHits;
            return l->value;
        }
        ++counts_.readMisses;
        replaceVictim(k, a);
        ++counts_.requests;
        ++counts_.netMessages;

        const GlobalState st = dir.get(a);
        DIR2B_ASSERT(st != GlobalState::PresentM,
                     "PresentM under write-through");
        const Value v = mem_.read(a);
        ++counts_.memReads;
        dir.set(a, st == GlobalState::Absent ? GlobalState::Present1
                                             : GlobalState::PresentStar);
        ++counts_.setstates;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        return v;
    }

    // Store: always through to memory; the map filters the broadcast.
    CacheLine *l = caches_.lookup(k, a);
    const GlobalState st = dir.get(a);
    DIR2B_ASSERT(st != GlobalState::PresentM,
                 "PresentM under write-through");

    mem_.write(a, wval);
    ++counts_.memWrites;
    ++counts_.wordWrites;
    ++counts_.netMessages;

    if (l) {
        ++counts_.writeHits;
        l->value = wval;
        if (st == GlobalState::PresentStar) {
            // Other copies may exist: invalidate them.  Exactly the
            // writer's copy remains -> the map regains Present1.
            ++counts_.writeHitsClean;
            broadcastInvalidate(a, k);
            dir.set(a, GlobalState::Present1);
            ++counts_.setstates;
        }
        // Present1: the single copy is ours — no broadcast at all,
        // the filtering win over the classical scheme.
        return wval;
    }

    ++counts_.writeMisses;
    if (st != GlobalState::Absent) {
        // Copies may exist elsewhere; after the invalidation none
        // remain (no write-allocate), so the block is exactly Absent.
        broadcastInvalidate(a, k);
        dir.set(a, GlobalState::Absent);
        ++counts_.setstates;
    }
    return wval;
}

void
TwoBitWtProtocol::flushCache(ProcId k)
{
    std::vector<Addr> addrs;
    caches_.forEachValid(
        k, [&](const CacheLine &l) { addrs.push_back(l.addr); });
    for (const Addr a : addrs) {
        TwoBitDirectory &dir = dirFor(a);
        ++counts_.ejects;
        ++counts_.netMessages;
        if (dir.get(a) == GlobalState::Present1) {
            dir.set(a, GlobalState::Absent);
            ++counts_.setstates;
        }
        caches_.invalidate(k, a);
    }
}

void
TwoBitWtProtocol::checkInvariants() const
{
    std::unordered_map<Addr, unsigned> copies;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            DIR2B_ASSERT(!l.dirty(),
                         "dirty line in write-through cache ", p);
            DIR2B_ASSERT(l.value == mem_.peek(l.addr),
                         "stale copy of block ", l.addr, " in cache ",
                         p);
            ++copies[l.addr];
        });
    }
    for (const auto &[a, n] : copies) {
        const GlobalState st = dirFor(a).get(a);
        DIR2B_ASSERT(st != GlobalState::PresentM && st != GlobalState::Absent,
                     n, " copies of block ", a, " but state ",
                     toString(st));
        if (st == GlobalState::Present1)
            DIR2B_ASSERT(n == 1, "Present1 block ", a, " has ", n,
                         " copies");
    }
}

} // namespace dir2b
