#include "proto/full_map.hh"

#include "util/logging.hh"

namespace dir2b
{

FullMapProtocol::FullMapProtocol(const ProtoConfig &cfg)
    : Protocol("full_map", cfg)
{}

FullMapProtocol::FullMapProtocol(const std::string &name,
                                 const ProtoConfig &cfg)
    : Protocol(name, cfg)
{}

FullMapEntry &
FullMapProtocol::entryFor(Addr a)
{
    onDirectoryTouch(a);
    return map_.tryEmplace(a, cfg_.numProcs).first->second;
}

const FullMapEntry *
FullMapProtocol::entry(Addr a) const
{
    auto it = map_.find(a);
    return it == map_.end() ? nullptr : &it->second;
}

void
FullMapProtocol::invalidateHolders(Addr a, FullMapEntry &e, ProcId except)
{
    for (std::size_t i = e.present.findFirst(); i < e.present.size();
         i = e.present.findNext(i)) {
        const auto p = static_cast<ProcId>(i);
        if (p == except)
            continue;
        // INVALIDATE(a, p): directed, always useful.
        ++counts_.directedCmds;
        ++counts_.netMessages;
        deliverCmd(p, true);
        const bool had = caches_.invalidate(p, a);
        DIR2B_ASSERT(had, "full map sent INVALIDATE(", a, ",", p,
                     ") to a cache without a copy");
        ++counts_.invalidations;
        e.present.reset(i);
        onCacheChange(p);
    }
}

Value
FullMapProtocol::purgeOwner(Addr a, FullMapEntry &e, RW rw)
{
    DIR2B_ASSERT(e.modified && e.present.count() == 1,
                 "purgeOwner on a block that is not PresentM");
    const auto owner = static_cast<ProcId>(e.present.findFirst());
    CacheLine *l = caches_.lookup(owner, a, false);
    DIR2B_ASSERT(l && l->dirty(), "full map owner of ", a,
                 " has no dirty copy");

    // PURGE(a, owner, rw): directed, always useful.
    ++counts_.directedCmds;
    ++counts_.netMessages;
    deliverCmd(owner, true);
    ++counts_.purges;

    const Value data = l->value;
    // put(b_owner, a) + write-back at the controller.
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    mem_.write(a, data);
    ++counts_.memWrites;
    ++counts_.writebacks;

    if (rw == RW::Read) {
        l->state = LineState::Shared;
    } else {
        caches_.invalidate(owner, a);
        ++counts_.invalidations;
        e.present.reset(owner);
    }
    e.modified = false;
    onCacheChange(owner);
    return data;
}

void
FullMapProtocol::replaceVictim(ProcId k, Addr a)
{
    CacheLine &victim = caches_.victimFor(k, a);
    if (!victim.valid())
        return;

    const Addr olda = victim.addr;
    FullMapEntry &e = entryFor(olda);
    ++counts_.ejects;
    ++counts_.netMessages;
    DIR2B_ASSERT(e.present.test(k), "ejecting ", olda,
                 " but the presence bit for cache ", k, " is clear");

    if (victim.dirty()) {
        DIR2B_ASSERT(e.modified, "dirty eject of ", olda,
                     " but directory modified bit is clear");
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
    onCacheChange(k);
}

void
FullMapProtocol::flushCache(ProcId k)
{
    std::vector<CacheLine> lines;
    caches_.forEachValid(
        k, [&](const CacheLine &l) { lines.push_back(l); });

    for (const CacheLine &l : lines) {
        FullMapEntry &e = entryFor(l.addr);
        ++counts_.ejects;
        ++counts_.netMessages;
        if (l.dirty()) {
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(l.addr, l.value);
            ++counts_.memWrites;
            ++counts_.writebacks;
            e.modified = false;
        }
        e.present.reset(k);
        ++counts_.setstates;
        caches_.invalidate(k, l.addr);
        onCacheChange(k);
    }
}

Value
FullMapProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
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

        // Write hit on a clean line: consult the map; invalidate the
        // other holders (exactly known) and set the modified bit.
        ++counts_.writeHits;
        ++counts_.writeHitsClean;
        ++counts_.mrequests;
        counts_.netMessages += 2; // MREQUEST + MGRANTED
        FullMapEntry &e = entryFor(a);
        DIR2B_ASSERT(e.present.test(k) && !e.modified,
                     "write hit on clean copy of ", a,
                     " but the directory disagrees");
        invalidateHolders(a, e, k);
        e.modified = true;
        ++counts_.setstates;
        l->state = LineState::Modified;
        l->value = wval;
        onCacheChange(k);
        return wval;
    }

    if (write)
        ++counts_.writeMisses;
    else
        ++counts_.readMisses;
    replaceVictim(k, a);
    ++counts_.requests;
    ++counts_.netMessages;

    FullMapEntry &e = entryFor(a);
    Value v = 0;

    if (!write) {
        if (e.modified) {
            v = purgeOwner(a, e, RW::Read);
        } else {
            v = mem_.read(a);
            ++counts_.memReads;
        }
        e.present.set(k);
        ++counts_.setstates;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        onCacheChange(k);
        return v;
    }

    if (e.modified) {
        v = purgeOwner(a, e, RW::Write);
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
    onCacheChange(k);
    return wval;
}

void
FullMapProtocol::checkInvariants() const
{
    // Directory -> caches: every presence bit set must correspond to a
    // valid copy; the modified bit implies exactly one dirty holder.
    for (const auto &[a, e] : map_) {
        std::size_t copies = 0;
        for (std::size_t i = e.present.findFirst(); i < e.present.size();
             i = e.present.findNext(i)) {
            const CacheLine *l = caches_.peek(i, a);
            DIR2B_ASSERT(l, "presence bit set for cache ", i, " block ",
                         a, " but no copy exists");
            DIR2B_ASSERT(l->dirty() == (e.modified),
                         "dirtiness mismatch for block ", a, " cache ",
                         i);
            ++copies;
        }
        if (e.modified) {
            DIR2B_ASSERT(copies == 1, "modified block ", a, " has ",
                         copies, " presence bits");
        }
    }
    // Caches -> directory: every valid line must be mapped.
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
