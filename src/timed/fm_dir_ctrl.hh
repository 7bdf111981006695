/**
 * @file
 * Timed full-map (Censier-Feautrier) directory controller.
 *
 * The n+1-bit baseline on the same TimedDirCtrl machinery: presence
 * vector + modified bit per block, directed INVALIDATE/PURGE instead
 * of broadcasts.  Two timed-tier realities relax the map's exactness
 * without harming safety:
 *
 *  - when an owner's in-flight EJECT(write) is consumed as the put()
 *    response, the owner's bit is cleared (the eject is
 *    distinguishable from a PURGE reply);
 *  - a PURGE answered by an EJECT leaves no stale state, but a holder
 *    whose clean EJECT(read) races an INVALIDATE may briefly have a
 *    stale presence bit; the resulting spurious INVALIDATE is a
 *    harmless no-op at the cache (acknowledged like any other).
 *
 * Invalidations are acknowledged, closing the in-flight-MREQUEST race
 * exactly as in the two-bit controller (see TimedDirCtrl).
 */

#ifndef DIR2B_TIMED_FM_DIR_CTRL_HH
#define DIR2B_TIMED_FM_DIR_CTRL_HH

#include "timed/dir_ctrl_base.hh"
#include "util/bitset.hh"
#include "util/flat_map.hh"

namespace dir2b
{

/** Timed full-map directory controller. */
class FmDirCtrl : public TimedDirCtrl
{
  public:
    FmDirCtrl(ModuleId id, const TimedConfig &cfg, EventQueue &eq,
              TimedNetwork &net)
        : TimedDirCtrl(id, cfg, eq, net)
    {}

    /** Directory entry: presence vector + modified bit. */
    struct Entry
    {
        DynBitset present;
        bool modified = false;

        explicit Entry(std::size_t n) : present(n) {}
    };

  protected:
    void processRequest(const Message &msg) override;
    void processMRequest(const Message &msg) override;
    void processEject(const Message &msg) override;
    void onPutResolved(Addr a, ProcId requester, RW rw,
                       const Message &answer) override;

  private:
    Entry &entryFor(Addr a);

    /** Supply data for a REQUEST and update the entry. */
    void finishRequest(ProcId k, Addr a, RW rw, Value data,
                       bool writeBack);

    FlatMap<Addr, Entry> map_;
};

} // namespace dir2b

#endif // DIR2B_TIMED_FM_DIR_CTRL_HH
