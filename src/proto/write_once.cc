#include "proto/write_once.hh"

#include "util/logging.hh"

namespace dir2b
{

void
WriteOnceProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;
    if (victim.dirty()) {
        mem_.write(victim.addr, victim.value);
        ++counts_.memWrites;
        ++counts_.writebacks;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
    }
    // Valid and Reserved lines are clean in memory: silent drop.
    caches_.invalidate(k, victim.addr);
}

Value
WriteOnceProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    CacheLine *l = caches_.lookup(k, a);

    if (!write) {
        if (l) {
            ++counts_.readHits;
            return l->value;
        }
        ++counts_.readMisses;
        replaceVictim(k, a);

        // Bus read: everyone snoops; a Dirty owner supplies and writes
        // back; Reserved/owners downgrade to Valid.
        snoop();
        ++counts_.netMessages;
        Value v = 0;
        bool supplied = false;
        for (ProcId i = 0; i < cfg_.numProcs; ++i) {
            if (i == k)
                continue;
            CacheLine *r = caches_.lookup(i, a, false);
            if (!r)
                continue;
            if (r->dirty()) {
                DIR2B_ASSERT(!supplied, "two dirty copies of ", a);
                v = r->value;
                supplied = true;
                ++counts_.stolenCycles;
                ++counts_.purges;
                ++counts_.cacheTransfers;
                ++counts_.dataTransfers;
                ++counts_.netMessages;
                mem_.write(a, v);
                ++counts_.memWrites;
                ++counts_.writebacks;
                r->state = LineState::Shared;
            } else if (r->state == LineState::Reserved) {
                // Memory is current; the copy merely loses reservation.
                ++counts_.stolenCycles;
                r->state = LineState::Shared;
            }
        }
        if (!supplied) {
            v = mem_.read(a);
            ++counts_.memReads;
        }
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        return v;
    }

    // Store.
    if (l) {
        switch (l->state) {
          case LineState::Modified:
            ++counts_.writeHits;
            l->value = wval;
            return wval;
          case LineState::Reserved:
            // Second write: Dirty, no bus traffic.
            ++counts_.writeHits;
            l->state = LineState::Modified;
            l->value = wval;
            return wval;
          case LineState::Shared: {
            // The eponymous write-once: write the word through and let
            // the bus invalidate every other copy.
            ++counts_.writeHits;
            ++counts_.writeHitsClean;
            snoop();
            l->state = LineState::Reserved;
            l->value = wval;
            mem_.write(a, wval);
            ++counts_.memWrites;
            ++counts_.wordWrites;
            ++counts_.netMessages;
            for (ProcId i = 0; i < cfg_.numProcs; ++i) {
                if (i == k)
                    continue;
                if (caches_.peek(i, a)) {
                    ++counts_.stolenCycles;
                    caches_.invalidate(i, a);
                    ++counts_.invalidations;
                }
            }
            return wval;
          }
          default:
            DIR2B_PANIC("write-once line in impossible state ",
                        toString(l->state));
        }
    }

    // Write miss: read-with-invalidate; the block arrives Dirty.
    ++counts_.writeMisses;
    replaceVictim(k, a);
    snoop();
    ++counts_.netMessages;
    bool supplied = false;
    for (ProcId i = 0; i < cfg_.numProcs; ++i) {
        if (i == k)
            continue;
        CacheLine *r = caches_.lookup(i, a, false);
        if (!r)
            continue;
        ++counts_.stolenCycles;
        if (r->dirty()) {
            DIR2B_ASSERT(!supplied, "two dirty copies of ", a);
            supplied = true;
            ++counts_.purges;
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
        }
        caches_.invalidate(i, a);
        ++counts_.invalidations;
    }
    if (!supplied) {
        mem_.read(a);
        ++counts_.memReads;
    }
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    caches_.fill(k, a, LineState::Modified, wval);
    return wval;
}

void
WriteOnceProtocol::checkInvariants() const
{
    std::unordered_map<Addr, std::pair<unsigned, unsigned>> seen;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            auto &[copies, owners] = seen[l.addr];
            ++copies;
            if (l.state == LineState::Modified ||
                l.state == LineState::Reserved) {
                ++owners;
            }
            if (l.state != LineState::Modified) {
                // Valid and Reserved copies match memory (write-through
                // on the first write keeps memory current).
                DIR2B_ASSERT(l.value == mem_.peek(l.addr),
                             "clean write-once copy of ", l.addr,
                             " differs from memory");
            }
        });
    }
    for (const auto &[a, co] : seen) {
        const auto [copies, owners] = co;
        DIR2B_ASSERT(owners <= 1, "block ", a, " has ", owners,
                     " Reserved/Dirty owners");
        if (owners == 1)
            DIR2B_ASSERT(copies == 1, "owned block ", a, " has ", copies,
                         " copies");
    }
}

} // namespace dir2b
