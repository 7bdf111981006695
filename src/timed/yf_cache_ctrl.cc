#include "timed/yf_cache_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

void
YfCacheCtrl::receive(unsigned src, const Message &msg)
{
    if (msg.kind == MsgKind::Purge)
        onPurge(msg);
    else
        TimedCacheCtrl::receive(src, msg);
}

void
YfCacheCtrl::onPurge(const Message &msg)
{
    CacheLine *l = bank_.lookup(id_, msg.addr, false);
    if (!l) {
        // Raced our ejection; the in-flight EJECT answers the purge
        // (clean EJECT(read)s answer too — ejectReadAnswersWait()).
        chargeAbsent(msg);
        return;
    }
    ++stats_.stolenCycles;

    // Answer whether dirty or clean: the controller cannot know which
    // (the silent upgrade is invisible to it).
    ++stats_.queriesAnswered;
    Message put;
    put.kind = MsgKind::PutData;
    put.proc = id_;
    put.addr = msg.addr;
    put.data = l->value;
    put.granted = l->dirty(); // "was dirty": controller writes back
    sendToHome(msg.addr, put);

    if (msg.rw == RW::Read) {
        // Downgrade: exclusive (clean or silently dirtied) -> Shared.
        l->state = LineState::Shared;
    } else {
        // §3.2.5 transplanted: the purge doubles as MGRANTED(false)
        // for a pending upgrade.
        const bool converts = txn_ && txn_->phase == Phase::AwaitGrant &&
                              txn_->ref.addr == msg.addr;
        dropLine(msg.addr, converts);
        ++stats_.invalidationsApplied;
        if (converts)
            convertToWriteMiss();
    }
}

} // namespace dir2b
