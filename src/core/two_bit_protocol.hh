/**
 * @file
 * The paper's contribution: the two-bit directory scheme (§3).
 *
 * Each memory module's controller keeps two bits of global state per
 * block (Absent / Present1 / Present* / PresentM) and no owner
 * identities.  Whenever a command must reach a cache that did not
 * initiate the transaction, it is *broadcast* to all caches
 * (BROADINV / BROADQUERY); caches without a copy do a useless
 * directory check.  The protocols implemented here follow §3.2
 * case-by-case:
 *
 *  Replacement (§3.2.1)
 *    - invalid victim: nothing;
 *    - valid clean victim: EJECT(k,olda,"read"); Present1 -> Absent,
 *      Present* unchanged (the map cannot count down);
 *    - valid modified victim: EJECT(k,olda,"write") + put(data);
 *      write-back; SETSTATE(olda, Absent).
 *
 *  Read miss (§3.2.2)
 *    - Absent: get; SETSTATE Present1;
 *    - Present1 / Present*: get; SETSTATE Present*;
 *    - PresentM: BROADQUERY(a,"read"); the owner puts the block and
 *      clears its modified bit (keeping a clean copy); the controller
 *      writes memory back, forwards the data, SETSTATE Present*
 *      (two clean copies now exist; see DESIGN.md on the OCR artefact
 *      in the paper's text here).
 *
 *  Write miss (§3.2.3)
 *    - Absent: get; SETSTATE PresentM;
 *    - Present1 / Present*: BROADINV(a,k); get; SETSTATE PresentM;
 *    - PresentM: BROADQUERY(a,"write"); the owner puts the block and
 *      invalidates; write-back; get; SETSTATE PresentM.
 *
 *  Write hit on clean block (§3.2.4)
 *    - Present1: MGRANTED(k,true) with no broadcast (the payoff for
 *      keeping Present1 distinct);
 *    - Present*: BROADINV(a,k) then grant.
 *
 * Broadcast overhead accounting matches §4.2 exactly: every broadcast
 * reaches the n-1 caches other than the requester, and each delivery
 * that finds no copy counts as a useless (extra) command.
 */

#ifndef DIR2B_CORE_TWO_BIT_PROTOCOL_HH
#define DIR2B_CORE_TWO_BIT_PROTOCOL_HH

#include <vector>

#include "core/two_bit_directory.hh"
#include "net/message.hh"
#include "proto/protocol.hh"

namespace dir2b
{

/** Functional-tier implementation of the two-bit directory scheme. */
class TwoBitProtocol : public Protocol
{
  public:
    explicit TwoBitProtocol(const ProtoConfig &cfg);

    /** Named variant (used for the "two_bit_nop1" ablation and by the
     *  translation-buffer subclass). */
    TwoBitProtocol(const std::string &name, const ProtoConfig &cfg);

    unsigned
    directoryBitsPerBlock() const override
    {
        return TwoBitDirectory::bitsPerBlock();
    }

    void checkInvariants() const override;

    /** §2.2 context-switch flush: dirty lines EJECT(write), clean
     *  lines EJECT(read) (reclaiming Present1 blocks). */
    void flushCache(ProcId p) override;
    bool supportsFlush() const override { return true; }

    /** Global state of block a as the directory believes it. */
    GlobalState globalState(Addr a) const { return dirFor(a).get(a); }

    /** Directory of module m (for storage-cost reporting). */
    const TwoBitDirectory &directory(ModuleId m) const
    {
        return dirs_.at(m);
    }

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

    /** Hook for the translation-buffer subclass: called instead of a
     *  raw broadcast; the default broadcasts to all n-1 caches. */
    virtual void sendRemoteInvalidate(Addr a, ProcId except);
    virtual Value sendRemoteQuery(Addr a, ProcId requester, RW rw);

    /**
     * Observation hooks: the home controller sees every REQUEST,
     * MREQUEST and EJECT for its blocks, which is what lets the
     * translation-buffer variant keep exact holder sets.  The base
     * scheme ignores them.
     */
    /** Cache k filled block a; 'before' is the prior global state and
     *  'write' distinguishes write-miss fills (sole holder after). */
    virtual void noteFill(ProcId, Addr, GlobalState, bool) {}
    /** Cache k was granted modification of a (sole holder after). */
    virtual void noteUpgrade(ProcId, Addr) {}
    /** Cache k ejected block a; toAbsent is true when the directory
     *  reclaimed the block. */
    virtual void noteEject(ProcId, Addr, bool) {}

    TwoBitDirectory &dirFor(Addr a) { return dirs_[addrMap_.home(a)]; }
    const TwoBitDirectory &
    dirFor(Addr a) const
    {
        return dirs_[addrMap_.home(a)];
    }

    /** §3.2.1 replacement of the victim frame block a would use. */
    void replaceVictim(ProcId k, Addr a);

  private:
    std::vector<TwoBitDirectory> dirs_;
};

} // namespace dir2b

#endif // DIR2B_CORE_TWO_BIT_PROTOCOL_HH
