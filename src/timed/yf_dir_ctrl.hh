/**
 * @file
 * Timed Yen-Fu directory controller (full map + exclusive-clean;
 * paper §2.4.3).
 *
 * Because caches may silently upgrade an exclusive-clean copy, the
 * controller's modified bit would always be suspect for sole-holder
 * blocks — so this design drops it entirely and keeps only the
 * presence vector, with the rule:
 *
 *   sole holder      => possibly modified  => PURGE on remote access
 *                       (the purge is answered dirty OR clean);
 *   multiple holders => all copies clean   => directed INVALIDATEs.
 *
 * This is the resolution of the synchronization problems the paper
 * says were "not fully resolved in [10]": every race reduces to the
 * machinery already proven for the other controllers (put
 * consumption — here including clean EJECT(read)s — plus the INVACK
 * barrier), and a PURGE(write) that catches a pending MREQUEST
 * converts it exactly like a BROADINV.
 */

#ifndef DIR2B_TIMED_YF_DIR_CTRL_HH
#define DIR2B_TIMED_YF_DIR_CTRL_HH

#include "timed/dir_ctrl_base.hh"
#include "util/bitset.hh"
#include "util/flat_map.hh"

namespace dir2b
{

/** Timed Yen-Fu directory controller. */
class YfDirCtrl : public TimedDirCtrl
{
  public:
    YfDirCtrl(ModuleId id, const TimedConfig &cfg, EventQueue &eq,
              TimedNetwork &net)
        : TimedDirCtrl(id, cfg, eq, net)
    {}

  protected:
    void processRequest(const Message &msg) override;
    void processMRequest(const Message &msg) override;
    void processEject(const Message &msg) override;
    void onPutResolved(Addr a, ProcId requester, RW rw,
                       const Message &answer) override;
    bool ejectReadAnswersWait() const override { return true; }

  private:
    DynBitset &entryFor(Addr a);

    FlatMap<Addr, DynBitset> map_;
};

} // namespace dir2b

#endif // DIR2B_TIMED_YF_DIR_CTRL_HH
