#include "proto/full_map_local.hh"

#include "util/logging.hh"

namespace dir2b
{

FullMapLocalProtocol::FullMapLocalProtocol(const ProtoConfig &cfg)
    : Protocol("full_map_local", cfg)
{}

LocalMapEntry &
FullMapLocalProtocol::entryFor(Addr a)
{
    return map_.tryEmplace(a, cfg_.numProcs).first->second;
}

Value
FullMapLocalProtocol::querySoleHolder(Addr a, LocalMapEntry &e, RW rw)
{
    DIR2B_ASSERT(e.present.count() == 1, "querySoleHolder with ",
                 e.present.count(), " holders");
    const auto owner = static_cast<ProcId>(e.present.findFirst());
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
    e.modified = false;

    if (rw == RW::Read) {
        l->state = LineState::Shared;
    } else {
        caches_.invalidate(owner, a);
        ++counts_.invalidations;
        e.present.reset(owner);
    }
    return data;
}

void
FullMapLocalProtocol::invalidateHolders(Addr a, LocalMapEntry &e,
                                        ProcId except)
{
    for (std::size_t i = e.present.findFirst(); i < e.present.size();
         i = e.present.findNext(i)) {
        const auto p = static_cast<ProcId>(i);
        if (p == except)
            continue;
        ++counts_.directedCmds;
        ++counts_.netMessages;
        deliverCmd(p, true);
        const bool had = caches_.invalidate(p, a);
        DIR2B_ASSERT(had, "INVALIDATE(", a, ",", p,
                     ") sent to a cache without a copy");
        ++counts_.invalidations;
        e.present.reset(i);
    }
}

void
FullMapLocalProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;

    const Addr olda = victim.addr;
    LocalMapEntry &e = entryFor(olda);
    ++counts_.ejects;
    ++counts_.netMessages;
    DIR2B_ASSERT(e.present.test(k), "eject of unmapped block ", olda);

    if (victim.dirty()) {
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        mem_.write(olda, victim.value);
        ++counts_.memWrites;
        ++counts_.writebacks;
        e.modified = false;
    }
    e.present.reset(k);
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
        LocalMapEntry &e = entryFor(a);
        invalidateHolders(a, e, k);
        e.modified = true;
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

    LocalMapEntry &e = entryFor(a);
    Value v = 0;

    if (!write) {
        if (e.present.none()) {
            // Absent: grant exclusive-clean so later writes are free.
            v = mem_.read(a);
            ++counts_.memReads;
            e.present.set(k);
            ++counts_.setstates;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            caches_.fill(k, a, LineState::Exclusive, v);
            return v;
        }
        if (e.present.count() == 1) {
            // Sole holder: may have silently modified; query it.
            v = querySoleHolder(a, e, RW::Read);
        } else {
            v = mem_.read(a);
            ++counts_.memReads;
        }
        e.present.set(k);
        ++counts_.setstates;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        // Downgrade any former exclusive holder's local state: the
        // querySoleHolder path already set it Shared; multi-holder
        // blocks are Shared by construction.
        return v;
    }

    if (e.present.count() == 1) {
        v = querySoleHolder(a, e, RW::Write);
    } else {
        invalidateHolders(a, e, k);
        v = mem_.read(a);
        ++counts_.memReads;
    }
    e.present.set(k);
    e.modified = true;
    ++counts_.setstates;
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    caches_.fill(k, a, LineState::Modified, wval);
    return wval;
}

void
FullMapLocalProtocol::checkInvariants() const
{
    for (const auto &[a, e] : map_) {
        std::size_t copies = 0;
        std::size_t dirty = 0;
        for (std::size_t i = e.present.findFirst(); i < e.present.size();
             i = e.present.findNext(i)) {
            const CacheLine *l = caches_.peek(i, a);
            DIR2B_ASSERT(l, "presence bit set for cache ", i, " block ",
                         a, " but no copy exists");
            ++copies;
            if (l->dirty())
                ++dirty;
            if (copies > 1) {
                DIR2B_ASSERT(l->state == LineState::Shared,
                             "multi-holder block ", a,
                             " with non-shared copy in cache ", i);
            }
        }
        DIR2B_ASSERT(dirty <= 1, "block ", a, " dirty in ", dirty,
                     " caches");
        // A dirty or exclusive copy is only legal for a sole holder.
        if (dirty == 1)
            DIR2B_ASSERT(copies == 1, "dirty block ", a, " with ",
                         copies, " copies");
        // e.modified may under-report (silent upgrades) but must never
        // over-report.
        if (e.modified)
            DIR2B_ASSERT(dirty == 1 && copies == 1,
                         "directory claims modified for block ", a,
                         " but caches disagree");
    }
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            auto it = map_.find(l.addr);
            DIR2B_ASSERT(it != map_.end() && it->second.present.test(p),
                         "cache ", p, " holds ", l.addr,
                         " without a presence bit");
        });
    }
}

} // namespace dir2b
