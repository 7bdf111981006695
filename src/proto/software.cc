#include "proto/software.hh"

#include "util/logging.hh"

namespace dir2b
{

SoftwareProtocol::SoftwareProtocol(const ProtoConfig &cfg)
    : Protocol("software", cfg)
{
    if (cfg.nonCacheableBase == invalidAddr)
        DIR2B_WARN("software protocol with no public region configured; "
                   "all blocks are treated as private");
}

Value
SoftwareProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    if (isPublic(a)) {
        // Public data bypasses the cache entirely: always a memory
        // round trip, never any coherence command.
        ++counts_.netMessages;
        if (write) {
            ++counts_.writeMisses;
            mem_.write(a, wval);
            ++counts_.memWrites;
            ++counts_.wordWrites;
            return wval;
        }
        ++counts_.readMisses;
        ++counts_.memReads;
        return mem_.read(a);
    }

    // Private / read-only blocks: plain uniprocessor write-back cache.

    // Classification contract: once some processor has written a
    // private block, no *other* processor may touch it (else it was
    // really public and the compiler mis-tagged it).
    if (write) {
        auto [it, fresh] = privateWriter_.try_emplace(a, k);
        if (!fresh && it->second != k) {
            DIR2B_PANIC("software-scheme contract violated: private "
                        "block ", a, " written by processors ",
                        it->second, " and ", k);
        }
    } else if (auto it = privateWriter_.find(a);
               it != privateWriter_.end() && it->second != k) {
        DIR2B_PANIC("software-scheme contract violated: private block ",
                    a, " written by processor ", it->second,
                    " and read by processor ", k);
    }

    if (CacheLine *l = caches_.lookup(k, a)) {
        if (!write) {
            ++counts_.readHits;
            return l->value;
        }
        ++counts_.writeHits;
        l->state = LineState::Modified;
        l->value = wval;
        return wval;
    }

    if (write)
        ++counts_.writeMisses;
    else
        ++counts_.readMisses;

    CacheLine &victim = caches_.victimFor(k, a);
    if (victim.valid()) {
        if (victim.dirty()) {
            mem_.write(victim.addr, victim.value);
            ++counts_.memWrites;
            ++counts_.writebacks;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
        }
        caches_.invalidate(k, victim.addr);
    }

    const Value v = mem_.read(a);
    ++counts_.memReads;
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    caches_.fill(k, a, write ? LineState::Modified : LineState::Shared,
           write ? wval : v);
    return write ? wval : v;
}

void
SoftwareProtocol::checkInvariants() const
{
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            DIR2B_ASSERT(!isPublic(l.addr), "public block ", l.addr,
                         " found cached in cache ", p);
        });
    }
}

} // namespace dir2b
