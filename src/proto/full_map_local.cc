#include "proto/full_map_local.hh"

#include "util/logging.hh"

namespace dir2b
{

FullMapLocalProtocol::FullMapLocalProtocol(const ProtoConfig &cfg)
    : Protocol("full_map_local", cfg)
{}

Value
FullMapLocalProtocol::querySoleHolder(Addr a, ProcId owner, RW rw)
{
    CacheLine *l = caches_.lookup(owner, a, false);
    DIR2B_ASSERT(l, "sole holder of ", a, " has no copy");

    // Directed query; always useful (a real copy is there).
    ++counts_.directedCmds;
    ++counts_.netMessages;
    deliverCmd(owner, true);

    Value data = l->value;
    if (l->dirty()) {
        // The silent upgrade materialises here: write back now.
        ++counts_.purges;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        mem_.write(a, data);
        ++counts_.memWrites;
        ++counts_.writebacks;
    } else {
        // Clean: memory is current; owner just acknowledges.
        data = mem_.read(a);
        ++counts_.memReads;
    }

    if (rw == RW::Read) {
        l->state = LineState::Shared;
    } else {
        caches_.invalidate(owner, a);
        ++counts_.invalidations;
    }
    return data;
}

void
FullMapLocalProtocol::invalidateHolders(Addr a, ProcId except)
{
    caches_.forEachHolder(a, except, [&](ProcId p) {
        ++counts_.directedCmds;
        ++counts_.netMessages;
        deliverCmd(p, true);
        caches_.invalidate(p, a);
        ++counts_.invalidations;
    });
}

void
FullMapLocalProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;

    const Addr olda = victim.addr;
    ++counts_.ejects;
    ++counts_.netMessages;

    if (victim.dirty()) {
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        mem_.write(olda, victim.value);
        ++counts_.memWrites;
        ++counts_.writebacks;
    }
    ++counts_.setstates;
    caches_.invalidate(k, olda);
}

Value
FullMapLocalProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    if (CacheLine *l = caches_.lookup(k, a)) {
        if (!write) {
            ++counts_.readHits;
            return l->value;
        }
        if (l->dirty()) {
            ++counts_.writeHits;
            l->value = wval;
            return wval;
        }
        if (l->state == LineState::Exclusive) {
            // The scheme's payoff: write proceeds with no global
            // transaction at all.
            ++counts_.writeHits;
            ++counts_.writeHitsClean;
            ++silentUpgrades_;
            l->state = LineState::Modified;
            l->value = wval;
            return wval;
        }

        // Shared clean copy: full-map style MREQUEST.
        ++counts_.writeHits;
        ++counts_.writeHitsClean;
        ++counts_.mrequests;
        counts_.netMessages += 2;
        invalidateHolders(a, k);
        ++counts_.setstates;
        l->state = LineState::Modified;
        l->value = wval;
        return wval;
    }

    if (write)
        ++counts_.writeMisses;
    else
        ++counts_.readMisses;
    replaceVictim(k, a);
    ++counts_.requests;
    ++counts_.netMessages;

    // A miss: k holds no copy, so these are all the holders.
    const std::size_t holders = caches_.otherHolders(a, k);
    ProcId sole = invalidProc;
    if (holders == 1)
        caches_.forEachHolder(a, k, [&](ProcId p) { sole = p; });
    Value v = 0;

    if (!write) {
        if (holders == 0) {
            // Absent: grant exclusive-clean so later writes are free.
            v = mem_.read(a);
            ++counts_.memReads;
            ++counts_.setstates;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            caches_.fill(k, a, LineState::Exclusive, v);
            return v;
        }
        if (holders == 1) {
            // Sole holder: may have silently modified; query it.
            v = querySoleHolder(a, sole, RW::Read);
        } else {
            v = mem_.read(a);
            ++counts_.memReads;
        }
        ++counts_.setstates;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        // Downgrade any former exclusive holder's local state: the
        // querySoleHolder path already set it Shared; multi-holder
        // blocks are Shared by construction.
        return v;
    }

    if (holders == 1) {
        v = querySoleHolder(a, sole, RW::Write);
    } else {
        invalidateHolders(a, k);
        v = mem_.read(a);
        ++counts_.memReads;
    }
    ++counts_.setstates;
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    caches_.fill(k, a, LineState::Modified, wval);
    return wval;
}

void
FullMapLocalProtocol::checkInvariants() const
{
    // An Exclusive or Modified copy is only legal for a sole holder, so
    // a multi-holder block is Shared everywhere and never dirty.
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            DIR2B_ASSERT(l.state == LineState::Shared ||
                             caches_.otherHolders(l.addr, p) == 0,
                         toString(l.state), " copy of block ", l.addr,
                         " in cache ", p, " is not the only copy");
        });
    }
}

} // namespace dir2b
