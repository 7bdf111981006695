#include "timed/fm_dir_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

FmDirCtrl::Entry &
FmDirCtrl::entryFor(Addr a)
{
    return map_.tryEmplace(a, cfg_.numProcs).first->second;
}

const FmDirCtrl::Entry *
FmDirCtrl::entry(Addr a) const
{
    auto it = map_.find(a);
    return it == map_.end() ? nullptr : &it->second;
}

void
FmDirCtrl::process(const Message &msg)
{
    switch (msg.kind) {
      case MsgKind::Request:
        processRequest(msg);
        return;
      case MsgKind::MRequest:
        processMRequest(msg);
        return;
      case MsgKind::Eject:
        processEject(msg);
        return;
      default:
        DIR2B_PANIC("full-map controller cannot process ",
                    toString(msg));
    }
}

void
FmDirCtrl::finishRequest(ProcId k, Addr a, RW rw, Value data,
                         bool writeBack)
{
    Entry &e = entryFor(a);
    if (rw == RW::Write) {
        e.present.clear();
        e.modified = true;
    } else {
        e.modified = false;
    }
    e.present.set(k);
    supplyData(k, a, data, writeBack);
}

void
FmDirCtrl::onPutResolved(Addr a, ProcId requester, RW rw,
                         const Message &answer)
{
    Entry &e = entryFor(a);
    DIR2B_ASSERT(e.modified, "put resolved for clean block ", a);
    const auto owner = static_cast<ProcId>(e.present.findFirst());

    if (answer.kind == MsgKind::Eject || rw == RW::Write) {
        // The owner ejected its copy, or PURGE(write) invalidated it.
        e.present.reset(owner);
    }
    // PURGE(read): the owner kept a clean copy; its bit stays.
    e.modified = false;
    finishRequest(requester, a, rw, answer.data, true);
}

void
FmDirCtrl::invalidateHolders(Addr a, Entry &e, ProcId except,
                             AckAction onAcked)
{
    // Stale 'except' bits (the requester re-acquiring a block whose
    // clean eject is still in flight) are cleared silently.
    unsigned sent = 0;
    for (std::size_t i = e.present.findFirst(); i < e.present.size();
         i = e.present.findNext(i)) {
        const auto p = static_cast<ProcId>(i);
        if (p == except)
            continue;
        Message inv;
        inv.kind = MsgKind::Invalidate;
        inv.proc = except;
        inv.addr = a;
        net_.send(endpoint(), p, inv);
        ++stats_.directedInvs;
        ++sent;
        e.present.reset(i);
    }
    if (sent == 0) {
        onAcked();
        return;
    }
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "inv_fanout", a, sent));
    // Queued stale MREQUESTs die now; in-flight ones at ack time.
    deleteQueuedMRequests(a, except);
    awaitAcks(a, except, sent, std::move(onAcked));
}

void
FmDirCtrl::processRequest(const Message &msg)
{
    ++stats_.requests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    Entry &e = entryFor(a);

    if (e.modified) {
        Message put;
        if (consumeQueuedPut(a, put)) {
            // The owner's eviction write-back doubles as the put.
            e.present.reset(e.present.findFirst());
            e.modified = false;
            finishRequest(k, a, msg.rw, put.data, true);
            return;
        }
        // Directed PURGE to the exact owner — the full map's whole
        // advantage over the two-bit broadcast.
        const auto owner = static_cast<ProcId>(e.present.findFirst());
        DIR2B_ASSERT(owner < cfg_.numProcs, "modified block ", a,
                     " with empty presence vector");
        Message purge;
        purge.kind = MsgKind::Purge;
        purge.proc = k;
        purge.addr = a;
        purge.rw = msg.rw;
        ++stats_.purges;
        awaitPut(a, k, msg.rw);
        DIR2B_TRC(trc_,
                  instant(eq_.now(), trk_, "purge_owner", a, owner));
        net_.send(endpoint(), owner, purge);
        return;
    }

    if (msg.rw == RW::Write) {
        invalidateHolders(a, e, k, [this, k, a] {
            finishRequest(k, a, RW::Write, mem_.read(a), false);
        });
        return;
    }
    finishRequest(k, a, msg.rw, mem_.read(a), false);
}

void
FmDirCtrl::processMRequest(const Message &msg)
{
    ++stats_.mrequests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    Entry &e = entryFor(a);

    auto grant = [this, k, a](bool yes) {
        Message reply;
        reply.kind = MsgKind::MGranted;
        reply.proc = k;
        reply.addr = a;
        reply.granted = yes;
        if (yes) {
            entryFor(a).modified = true;
            ++stats_.grantsTrue;
        } else {
            ++stats_.grantsFalse;
        }
        net_.send(endpoint(), k, reply);
    };

    if (!e.present.test(k) || e.modified) {
        // The requester's bit is gone: an INVALIDATE raced the
        // MREQUEST; the cache has converted (or will, by FIFO).
        grant(false);
        return;
    }
    if (e.present.count() == 1) {
        grant(true);
        return;
    }
    invalidateHolders(a, e, k, [grant] { grant(true); });
}

void
FmDirCtrl::processEject(const Message &msg)
{
    Entry &e = entryFor(msg.addr);

    if (msg.rw == RW::Read) {
        // Exact bookkeeping — the full map's economy of later
        // commands; ignore if the bit already fell to a racing
        // INVALIDATE.
        if (e.present.test(msg.proc)) {
            e.present.reset(msg.proc);
            ++stats_.ejectsApplied;
        } else {
            ++stats_.ejectsIgnored;
        }
        return;
    }

    DIR2B_ASSERT(e.modified && e.present.test(msg.proc),
                 "EJECT(write) for block ", msg.addr,
                 " from non-owner cache ", msg.proc);
    mem_.write(msg.addr, msg.data);
    e.present.reset(msg.proc);
    e.modified = false;
    ++stats_.ejectsData;
}

} // namespace dir2b
