/**
 * @file
 * Full map with added local state (Yen & Fu 1982; paper §2.4.3).
 *
 * Extends the Censier-Feautrier map with a local *exclusive-clean*
 * state: a cache that is known to hold the only copy of an unmodified
 * block may write it "without first consulting the global table".
 * The cost is that the directory's modified bit can be stale — a
 * sole-holder block may have been silently upgraded — so any remote
 * request for a block with exactly one presence bit must query the
 * owner regardless of the modified bit (the "additional
 * synchronization problems (not fully resolved in [10])" the paper
 * alludes to; in this atomic tier the query resolves them).
 *
 * Relative to the plain full map this trades MREQUEST round trips on
 * write hits against extra owner queries on remote accesses to
 * sole-holder blocks — measured head-to-head in bench_protocol_comparison.
 *
 * The presence vector is the CacheBank's holder index: the scheme's
 * decisions read only who holds a block, never the modified bit (which
 * a silent upgrade makes stale anyway), so the index is the whole map.
 * directoryBitsPerBlock() reports the n+1 bits hardware would keep.
 */

#ifndef DIR2B_PROTO_FULL_MAP_LOCAL_HH
#define DIR2B_PROTO_FULL_MAP_LOCAL_HH

#include "net/message.hh"
#include "proto/protocol.hh"

namespace dir2b
{

/** Functional-tier Yen-Fu protocol (full map + exclusive-clean). */
class FullMapLocalProtocol : public Protocol
{
  public:
    explicit FullMapLocalProtocol(const ProtoConfig &cfg);

    unsigned
    directoryBitsPerBlock() const override
    {
        return static_cast<unsigned>(cfg_.numProcs) + 1;
    }

    void checkInvariants() const override;

    /** Silent Exclusive->Modified upgrades performed (the scheme's
     *  whole point; zero messages each). */
    std::uint64_t silentUpgrades() const { return silentUpgrades_; }

  protected:
    Value doAccess(ProcId k, Addr a, bool write, Value wval) override;

  private:
    /** Query `owner`, the sole holder of a: returns its data, writing
     *  back if it had silently modified the block; downgrades
     *  (rw=Read) or invalidates (rw=Write) the holder's copy. */
    Value querySoleHolder(Addr a, ProcId owner, RW rw);

    void invalidateHolders(Addr a, ProcId except);
    void replaceVictim(ProcId k, Addr a);

    std::uint64_t silentUpgrades_ = 0;
};

} // namespace dir2b

#endif // DIR2B_PROTO_FULL_MAP_LOCAL_HH
