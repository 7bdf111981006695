/**
 * @file
 * Timed cache controller for the Yen-Fu scheme (full map + local
 * exclusive-clean state; paper §2.4.3).
 *
 * The paper notes the scheme's synchronization problems were "not
 * fully resolved in [10]"; this controller resolves them:
 *
 *  - a read-miss fill may arrive as *exclusive-clean* (the controller
 *    grants it when no other cache holds the block);
 *  - a write hit on an Exclusive line upgrades silently — no
 *    MREQUEST, no messages (the scheme's entire payoff);
 *  - consequently the controller cannot trust its modified bit for
 *    sole-holder blocks and PURGEs them on any remote request; the
 *    purge must be answered whether the copy turned out dirty or
 *    clean (PutData with granted = wasDirty), and a PURGE(write) that
 *    catches a pending MREQUEST converts it exactly like a BROADINV
 *    (§3.2.5's rule transplanted).
 */

#ifndef DIR2B_TIMED_YF_CACHE_CTRL_HH
#define DIR2B_TIMED_YF_CACHE_CTRL_HH

#include "timed/cache_ctrl.hh"

namespace dir2b
{

/** Timed Yen-Fu cache controller. */
class YfCacheCtrl : public TimedCacheCtrl
{
  public:
    using TimedCacheCtrl::TimedCacheCtrl;

    void receive(unsigned src, const Message &msg) override;

    /** Silent Exclusive -> Modified upgrades performed. */
    std::uint64_t silentUpgrades() const { return silentUpgrades_; }

  protected:
    bool
    tryLocalWrite(CacheLine *l, Value wval) override
    {
        if (l->state != LineState::Exclusive)
            return false;
        l->state = LineState::Modified;
        l->value = wval;
        ++silentUpgrades_;
        return true;
    }

    LineState
    readFillState(const Message &msg) const override
    {
        return msg.granted ? LineState::Exclusive : LineState::Shared;
    }

  private:
    /** PURGE(a, requester, rw): must be answered dirty OR clean. */
    void onPurge(const Message &msg);

    std::uint64_t silentUpgrades_ = 0;
};

} // namespace dir2b

#endif // DIR2B_TIMED_YF_CACHE_CTRL_HH
