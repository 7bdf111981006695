#include "proto/illinois.hh"

#include "util/logging.hh"

namespace dir2b
{

void
IllinoisProtocol::replaceVictim(ProcId k, Addr a)
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
    caches_.invalidate(k, victim.addr);
}

Value
IllinoisProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    CacheLine *l = caches_.lookup(k, a);

    if (!write) {
        if (l) {
            ++counts_.readHits;
            return l->value;
        }
        ++counts_.readMisses;
        replaceVictim(k, a);
        snoop();
        ++counts_.netMessages;

        // Prefer a cache supplier; a Modified owner writes back too.
        Value v = 0;
        bool supplied = false;
        for (ProcId i = 0; i < cfg_.numProcs && !supplied; ++i) {
            if (i == k)
                continue;
            CacheLine *r = caches_.lookup(i, a, false);
            if (!r)
                continue;
            supplied = true;
            v = r->value;
            ++counts_.stolenCycles;
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            if (r->dirty()) {
                ++counts_.purges;
                mem_.write(a, v);
                ++counts_.memWrites;
                ++counts_.writebacks;
            }
            r->state = LineState::Shared;
        }
        // Any remaining holders also observe the read and downgrade.
        for (ProcId i = 0; i < cfg_.numProcs; ++i) {
            if (i == k)
                continue;
            if (CacheLine *r = caches_.lookup(i, a, false)) {
                if (r->state == LineState::Exclusive)
                    r->state = LineState::Shared;
            }
        }
        const bool exclusiveFill = !supplied;
        if (!supplied) {
            v = mem_.read(a);
            ++counts_.memReads;
        }
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, exclusiveFill ? LineState::Exclusive
                                : LineState::Shared, v);
        return v;
    }

    // Store.
    if (l) {
        switch (l->state) {
          case LineState::Modified:
            ++counts_.writeHits;
            l->value = wval;
            return wval;
          case LineState::Exclusive:
            // Silent upgrade: no bus transaction at all.
            ++counts_.writeHits;
            ++counts_.writeHitsClean;
            l->state = LineState::Modified;
            l->value = wval;
            return wval;
          case LineState::Shared: {
            // Bus invalidation.
            ++counts_.writeHits;
            ++counts_.writeHitsClean;
            snoop();
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
            l->state = LineState::Modified;
            l->value = wval;
            return wval;
          }
          default:
            DIR2B_PANIC("illinois line in impossible state ",
                        toString(l->state));
        }
    }

    // Write miss: read-for-ownership.
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
        if (!supplied) {
            supplied = true;
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            if (r->dirty())
                ++counts_.purges;
            // Ownership transfers; no write-back is needed since the
            // requester immediately dirties the block.
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
IllinoisProtocol::checkInvariants() const
{
    std::unordered_map<Addr, std::pair<unsigned, unsigned>> seen;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            auto &[copies, exclusive] = seen[l.addr];
            ++copies;
            if (l.state == LineState::Modified ||
                l.state == LineState::Exclusive) {
                ++exclusive;
            }
            if (l.state == LineState::Exclusive) {
                DIR2B_ASSERT(l.value == mem_.peek(l.addr),
                             "Exclusive copy of ", l.addr,
                             " differs from memory");
            }
        });
    }
    for (const auto &[a, ce] : seen) {
        const auto [copies, exclusive] = ce;
        DIR2B_ASSERT(exclusive <= 1, "block ", a, " has ", exclusive,
                     " M/E owners");
        if (exclusive == 1)
            DIR2B_ASSERT(copies == 1, "M/E block ", a, " has ", copies,
                         " copies");
    }
}

} // namespace dir2b
