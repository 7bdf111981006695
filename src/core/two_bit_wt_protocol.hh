/**
 * @file
 * Write-through variant of the two-bit directory scheme.
 *
 * §2.4: "Although the schemes can be implemented for both
 * write-through and write-back, we assume a write-back policy for the
 * discussion that follows."  This is the other branch of that choice,
 * and it realises §2.4's framing of directories as *filters* in its
 * purest form: the scheme is exactly the classical broadcast solution
 * (§2.3) with the two-bit map deciding whether the invalidation
 * broadcast is necessary at all.
 *
 * With write-through, memory is always current, so the PresentM state
 * can never arise; the map uses only Absent / Present1 / Present*:
 *
 *  - read miss: fill from memory; Absent -> Present1, else Present*;
 *  - write hit: word written through to memory; if Present* (other copies
 *    may exist) broadcast BROADINV, and the state returns to Present1
 *    (exactly the writer's copy remains); Present1 needs NO broadcast
 *    — this is the filtering win over the classical scheme, which
 *    broadcasts on every single store;
 *  - write miss (no allocate): write memory; broadcast only if the
 *    state says copies may exist; Present1/Present* -> Absent after
 *    the invalidation (no copy remains, since we do not allocate);
 *  - clean eviction: EJECT(read) as in the write-back scheme
 *    (Present1 -> Absent); there are never dirty evictions.
 */

#ifndef DIR2B_CORE_TWO_BIT_WT_PROTOCOL_HH
#define DIR2B_CORE_TWO_BIT_WT_PROTOCOL_HH

#include <vector>

#include "core/two_bit_directory.hh"
#include "proto/protocol.hh"

namespace dir2b
{

/** Functional-tier write-through two-bit directory protocol. */
class TwoBitWtProtocol : public Protocol
{
  public:
    explicit TwoBitWtProtocol(const ProtoConfig &cfg);

    unsigned
    directoryBitsPerBlock() const override
    {
        return TwoBitDirectory::bitsPerBlock();
    }

    void checkInvariants() const override;
    void flushCache(ProcId p) override;
    bool supportsFlush() const override { return true; }

    GlobalState globalState(Addr a) const { return dirFor(a).get(a); }

    DirStoreCounters
    dirStoreCounters() const override
    {
        DirStoreCounters c;
        for (const TwoBitDirectory &d : dirs_)
            c.add(d);
        return c;
    }

  protected:
    Value doAccess(ProcId k, Addr a, bool write, Value wval) override;

  private:
    TwoBitDirectory &dirFor(Addr a) { return dirs_[addrMap_.home(a)]; }
    const TwoBitDirectory &
    dirFor(Addr a) const
    {
        return dirs_[addrMap_.home(a)];
    }

    /** Clean eviction bookkeeping (there are no dirty lines). */
    void replaceVictim(ProcId k, Addr a);

    std::vector<TwoBitDirectory> dirs_;
};

} // namespace dir2b

#endif // DIR2B_CORE_TWO_BIT_WT_PROTOCOL_HH
