/**
 * @file
 * Timed memory-controller (directory) for the two-bit scheme.
 *
 * The controller of §3.2.5 on top of the shared TimedDirCtrl
 * machinery: a 2-bit/block map, BROADINV/BROADQUERY broadcasts, the
 * delete-anywhere queue, and both arbitration options.
 *
 * EJECT(k, a, "read") notifications are accepted but deliberately not
 * acted upon, per the paper's own note that they "could be ignored ...
 * and the protocols to follow still be correct"; in a timed system a
 * late-arriving clean EJECT could otherwise reclaim a Present1 block
 * that a different cache has since re-acquired.  Present1 therefore
 * means "at most one clean copy", which keeps the MREQUEST fast path
 * sound.
 */

#ifndef DIR2B_TIMED_DIR_CTRL_HH
#define DIR2B_TIMED_DIR_CTRL_HH

#include <vector>

#include "core/two_bit_directory.hh"
#include "timed/dir_ctrl_base.hh"

namespace dir2b
{

/** Timed two-bit directory controller. */
class TwoBitDirCtrl : public TimedDirCtrl
{
  public:
    TwoBitDirCtrl(ModuleId id, const TimedConfig &cfg, EventQueue &eq,
                  TimedNetwork &net)
        : TimedDirCtrl(id, cfg, eq, net),
          dir_(perModuleDirBudget(cfg.dirRamBudget, cfg.numModules))
    {}

    const TwoBitDirectory *twoBitDir() const override { return &dir_; }

  protected:
    void processRequest(const Message &msg) override;
    void processMRequest(const Message &msg) override;
    void processEject(const Message &msg) override;
    void onPutResolved(Addr a, ProcId requester, RW rw,
                       const Message &answer) override;

  private:
    /** Supply data for a REQUEST and set the post-transaction state. */
    void finishRequest(ProcId k, Addr a, RW rw, Value data,
                       bool writeBack);

    /** BROADINV(a, except): queue deletion, broadcast, ack barrier. */
    void broadcastInvalidate(Addr a, ProcId except,
                             AckAction onAcked);

    /** Every processor except k, in ascending order (the fan-out of
     *  a broadcast; valid until the next call). */
    const std::vector<unsigned> &procsExcept(ProcId k);

    TwoBitDirectory dir_;
    /** procsExcept()'s reused buffer. */
    std::vector<unsigned> dsts_;
};

} // namespace dir2b

#endif // DIR2B_TIMED_DIR_CTRL_HH
