/**
 * @file
 * Abstract interface of the functional (transaction-atomic) protocol
 * tier.
 *
 * Each Protocol owns the complete memory-system state of one
 * multiprocessor: n private caches, the backing store, and whatever
 * directory structure the scheme requires.  A call to access() performs
 * one LOAD or STORE *as an atomic transaction* — the serialisation the
 * paper's controller enforces ("only one request at a time will be
 * serviced", §3.2.5 option 1) — and accounts every command and data
 * transfer the scheme would put on the interconnection network.
 *
 * Timing-level concurrency (queued controllers, races between
 * MREQUESTs and BROADINVs, in-flight ejects) is the subject of the
 * timed tier in src/timed/; this tier is for exact command counting,
 * coherence oracles and protocol comparison, which is precisely the
 * setting of the paper's own evaluation model (§4.2).
 */

#ifndef DIR2B_PROTO_PROTOCOL_HH
#define DIR2B_PROTO_PROTOCOL_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_bank.hh"
#include "core/two_bit_directory.hh"
#include "memory/address_map.hh"
#include "memory/backing_store.hh"
#include "net/message.hh"
#include "proto/counts.hh"
#include "util/types.hh"

namespace dir2b
{

/** Configuration shared by every functional protocol. */
struct ProtoConfig
{
    /** Number of processor-cache pairs (the paper's n). */
    ProcId numProcs = 4;
    /** Geometry of each private cache. */
    CacheGeometry cacheGeom{};
    /** Number of memory modules (directory is distributed over them). */
    ModuleId numModules = 4;
    /** Classical scheme: capacity of the per-cache BIAS filter. */
    std::size_t biasCapacity = 0;
    /** Two-bit + translation buffer: TB entries per module (0 = none). */
    std::size_t tbCapacity = 0;
    /** Two-bit: duplicate each cache's tag directory so broadcast
     *  checks for absent blocks steal no cache cycle (§4.4 a). */
    bool snoopFilter = false;
    /** Two-bit ablation: drop the Present1 encoding (fold it into
     *  Present*), isolating the value of the paper's §3.2.1/§3.2.4
     *  claim that keeping Present1 "will reduce the number of
     *  broadcasts". */
    bool noPresent1 = false;
    /** Software scheme: blocks at or above this address are tagged
     *  shared-writeable and are never cached. */
    Addr nonCacheableBase = invalidAddr;
    /** Total directory RAM budget in bytes, split evenly across the
     *  modules; beyond it cold directory pages compress and spill to
     *  disk (util/tiered_store.hh).  0 = unlimited (no tiering).
     *  Results are bit-identical at any budget. */
    std::uint64_t dirRamBudget = 0;
};

/** Base class of every functional coherence protocol. */
class Protocol
{
  public:
    Protocol(std::string name, const ProtoConfig &cfg);
    virtual ~Protocol() = default;

    Protocol(const Protocol &) = delete;
    Protocol &operator=(const Protocol &) = delete;

    /**
     * Execute one memory reference as an atomic transaction.
     *
     * @param k     issuing processor
     * @param a     block address
     * @param write true for STORE, false for LOAD
     * @param wval  block contents after a STORE (ignored for LOAD)
     * @return the value read (LOAD) or now stored (STORE)
     */
    Value access(ProcId k, Addr a, bool write, Value wval = 0);

    /** Scheme name ("two_bit", "full_map", ...). */
    const std::string &name() const { return name_; }

    /** Cumulative event counts. */
    const AccessCounts &counts() const { return counts_; }

    /** Counts delta of the most recent access() call. */
    const AccessCounts &lastDelta() const { return lastDelta_; }

    /** Per-cache view: commands received from other caches' activity. */
    std::uint64_t
    cmdsReceivedBy(ProcId p) const
    {
        return recvCmds_.at(p) + broadcastsTo(p);
    }

    /** Per-cache view: useless commands received. */
    std::uint64_t
    uselessReceivedBy(ProcId p) const
    {
        return recvUseless_.at(p) + broadcastsTo(p) -
               usefulBroadcastsTo_[p];
    }

    /** References issued by processor p. */
    std::uint64_t refsIssuedBy(ProcId p) const { return refsBy_.at(p); }

    /** Caches whose array currently holds a valid copy of block a. */
    std::vector<ProcId> holders(Addr a) const { return caches_.holders(a); }

    /** Current memory contents of block a (oracle support). */
    Value memValue(Addr a) const { return mem_.peek(a); }

    /** Read-only view of processor p's cache. */
    const CacheArray &cache(ProcId p) const { return caches_.array(p); }

    /** The caches and their holder index (for index cross-checks). */
    const CacheBank &bank() const { return caches_; }

    /** Backing store (for traffic counters). */
    const BackingStore &memory() const { return mem_; }

    ProcId numProcs() const { return cfg_.numProcs; }
    const ProtoConfig &config() const { return cfg_; }

    /**
     * Directory storage cost in bits per memory block — the economy
     * axis of the paper's comparison (2 vs n+1).
     */
    virtual unsigned directoryBitsPerBlock() const = 0;

    /**
     * Aggregated tiered directory-storage counters across this
     * system's modules (the "dirStore" object of the dir2b.sweep v3
     * schema).  Schemes without a TieredStore-backed directory return
     * all zeros; drivers test hasDirStore() before emitting.
     */
    virtual DirStoreCounters dirStoreCounters() const { return {}; }

    /**
     * Deep consistency check between the directory structures and the
     * cache arrays; panics on violation.  Tests call this after every
     * access.
     */
    virtual void checkInvariants() const = 0;

    /**
     * Flush processor p's cache: write every dirty line back and drop
     * every copy, updating the directory — the §2.2 context-switch
     * operation ("cache flush and possibly writebacks at context
     * switch").  Counted as EJECTs.  Not every scheme supports it;
     * the default fatals.
     */
    virtual void flushCache(ProcId p);

    /**
     * Whether flushCache is implemented for this scheme.  Lets generic
     * drivers (the state-space explorer's action alphabet, tooling)
     * query capability instead of keeping a scheme-name list that goes
     * stale when a protocol gains flush support.
     */
    virtual bool supportsFlush() const { return false; }

  protected:
    /** Scheme-specific transaction body. */
    virtual Value doAccess(ProcId k, Addr a, bool write, Value wval) = 0;

    /** Record one directed command delivered to cache p (stolen
     *  cycle accounting and the per-cache received-command view). */
    void deliverCmd(ProcId p, bool useful);

    /**
     * BROADINV(a, except): delivered to the n-1 caches other than
     * `except`; every other holder's (clean) copy is invalidated, and
     * the deliveries that find no copy are useless (§4.2).  With
     * snoopFiltered (the duplicate tag directory of §4.4 a) only the
     * holders' checks steal a cache cycle; the rest are filtered.
     */
    void broadcastInvalidate(Addr a, ProcId except,
                             bool snoopFiltered = false);

    /**
     * BROADQUERY(a, rw) from `requester` to the n-1 other caches: the
     * dirty owner puts the block, memory is written back, and the
     * owner keeps a clean Shared copy (read) or drops it (write).
     * Only the owner's delivery is useful.  @return the owner's data.
     */
    Value broadcastQuery(Addr a, ProcId requester, RW rw,
                         bool snoopFiltered = false);

    ProtoConfig cfg_;
    AddressMap addrMap_;
    CacheBank caches_;
    BackingStore mem_;
    AccessCounts counts_;

  private:
    /**
     * Count one broadcast of block a from `sender` and visit the other
     * holders of a in ascending ProcId; visit(p) acts on p's copy and
     * returns whether its delivery was useful.  The n-1 deliveries are
     * counted arithmetically, never visited one by one.
     */
    template <typename Visit>
    void broadcast(Addr a, ProcId sender, bool snoopFiltered,
                   Visit &&visit);

    /** Broadcast deliveries cache p has received: every broadcast
     *  but its own. */
    std::uint64_t
    broadcastsTo(ProcId p) const
    {
        return broadcastCount_ - broadcastsBy_.at(p);
    }

    std::string name_;
    AccessCounts lastDelta_;
    /** Directed deliveries (deliverCmd) per cache. */
    std::vector<std::uint64_t> recvCmds_;
    std::vector<std::uint64_t> recvUseless_;
    /** Broadcast tallies, from which the per-cache broadcast
     *  deliveries are derived on demand. */
    std::uint64_t broadcastCount_ = 0;
    std::vector<std::uint64_t> broadcastsBy_;
    std::vector<std::uint64_t> usefulBroadcastsTo_;
    std::vector<std::uint64_t> refsBy_;
};

} // namespace dir2b

#endif // DIR2B_PROTO_PROTOCOL_HH
