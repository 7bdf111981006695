#include "proto/classical.hh"

#include "util/logging.hh"

namespace dir2b
{

ClassicalProtocol::ClassicalProtocol(const ProtoConfig &cfg)
    : Protocol("classical", cfg)
{
    bias_.reserve(cfg.numProcs);
    for (ProcId p = 0; p < cfg.numProcs; ++p)
        bias_.emplace_back(cfg.biasCapacity);
}

std::uint64_t
ClassicalProtocol::biasAbsorbed() const
{
    std::uint64_t total = 0;
    for (const auto &b : bias_)
        total += b.absorbed();
    return total;
}

Value
ClassicalProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    bias_[k].onLocalReference(a);

    if (!write) {
        if (CacheLine *l = caches_.lookup(k, a)) {
            ++counts_.readHits;
            return l->value;
        }
        ++counts_.readMisses;
        // Memory is always current; evictions are silent (clean).
        CacheLine &victim = caches_.victimFor(k, a);
        if (victim.valid()) {
            DIR2B_ASSERT(!victim.dirty(),
                         "write-through cache holds a dirty line");
            caches_.invalidate(k, victim.addr);
        }
        const Value v = mem_.read(a);
        ++counts_.memReads;
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        caches_.fill(k, a, LineState::Shared, v);
        return v;
    }

    // Store: write through to memory and broadcast the invalidation
    // address on the cache invalidation line.
    CacheLine *l = caches_.lookup(k, a);
    if (l) {
        ++counts_.writeHits;
        l->value = wval;
    } else {
        // No write-allocate: a store miss leaves the cache untouched.
        ++counts_.writeMisses;
    }

    // The word goes to memory on every store (write-through).
    mem_.write(a, wval);
    ++counts_.memWrites;
    ++counts_.wordWrites;
    ++counts_.netMessages;

    // Broadcast invalidation to all other caches.
    ++counts_.broadcasts;
    for (ProcId i = 0; i < cfg_.numProcs; ++i) {
        if (i == k)
            continue;
        ++counts_.broadcastCmds;
        ++counts_.netMessages;
        if (bias_[i].onInvalidate(a)) {
            // Absorbed: the block was already invalidated and not
            // re-referenced since; no cache directory cycle.
            ++counts_.filteredCmds;
            DIR2B_ASSERT(!caches_.peek(i, a),
                         "BIAS filter absorbed an invalidation for a "
                         "resident block");
            continue;
        }
        CacheLine *remote = caches_.lookup(i, a, false);
        deliverCmd(i, remote != nullptr);
        if (remote) {
            caches_.invalidate(i, a);
            ++counts_.invalidations;
        }
    }
    return wval;
}

void
ClassicalProtocol::checkInvariants() const
{
    // Write-through: no cache may ever hold a dirty line, and every
    // cached copy must equal memory.
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            DIR2B_ASSERT(!l.dirty(), "dirty line in write-through cache ",
                         p);
            DIR2B_ASSERT(l.value == mem_.peek(l.addr),
                         "stale copy of block ", l.addr, " in cache ", p);
        });
    }
}

} // namespace dir2b
