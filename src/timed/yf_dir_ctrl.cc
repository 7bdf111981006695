#include "timed/yf_dir_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

DynBitset &
YfDirCtrl::entryFor(Addr a)
{
    return map_.tryEmplace(a, cfg_.numProcs).first->second;
}

void
YfDirCtrl::process(const Message &msg)
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
        DIR2B_PANIC("yen-fu controller cannot process ", toString(msg));
    }
}

void
YfDirCtrl::invalidateHolders(Addr a, DynBitset &e, ProcId except,
                             AckAction onAcked)
{
    unsigned sent = 0;
    for (std::size_t i = e.findFirst(); i < e.size();
         i = e.findNext(i)) {
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
        e.reset(i);
    }
    if (sent == 0) {
        onAcked();
        return;
    }
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "inv_fanout", a, sent));
    deleteQueuedMRequests(a, except);
    awaitAcks(a, except, sent, std::move(onAcked));
}

void
YfDirCtrl::purgeSoleHolder(Addr a, ProcId requester, RW rw)
{
    DynBitset &e = entryFor(a);
    const auto owner = static_cast<ProcId>(e.findFirst());
    DIR2B_ASSERT(owner < cfg_.numProcs && owner != requester,
                 "bad sole holder for block ", a);
    Message purge;
    purge.kind = MsgKind::Purge;
    purge.proc = requester;
    purge.addr = a;
    purge.rw = rw;
    ++stats_.purges;
    awaitPut(a, requester, rw);
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "purge_owner", a, owner));
    net_.send(endpoint(), owner, purge);
}

void
YfDirCtrl::processRequest(const Message &msg)
{
    ++stats_.requests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    DynBitset &e = entryFor(a);

    // A stale own bit (clean eject consumed elsewhere) cannot occur:
    // the cache's EJECT precedes its re-REQUEST on the same FIFO link.
    DIR2B_ASSERT(!e.test(k), "requester ", k,
                 " still has a presence bit for block ", a);

    const std::size_t holders = e.count();

    if (holders == 1) {
        // Sole holder: possibly silently modified -> query it, for
        // reads and writes alike.  An in-flight ejection (dirty or
        // clean!) doubles as the answer.
        Message put;
        if (consumeQueuedPut(a, put)) {
            // The ejection already in our queue is the answer; the
            // resolution path handles dirty and clean ejects alike.
            onPutResolved(a, k, msg.rw, put);
            return;
        }
        purgeSoleHolder(a, k, msg.rw);
        return;
    }

    if (msg.rw == RW::Write) {
        if (holders > 0) {
            invalidateHolders(a, e, k, [this, k, a] {
                DynBitset &entry = entryFor(a);
                entry.clear();
                entry.set(k);
                supplyData(k, a, mem_.read(a), false);
            });
            return;
        }
        e.set(k);
        supplyData(k, a, mem_.read(a), false);
        return;
    }

    // Read with 0 or >= 2 holders: memory is current.
    const bool exclusive = holders == 0;
    e.set(k);
    supplyData(k, a, mem_.read(a), false, exclusive);
}

void
YfDirCtrl::processMRequest(const Message &msg)
{
    ++stats_.mrequests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    DynBitset &e = entryFor(a);

    auto grant = [this, k, a](bool yes) {
        Message reply;
        reply.kind = MsgKind::MGranted;
        reply.proc = k;
        reply.addr = a;
        reply.granted = yes;
        if (yes)
            ++stats_.grantsTrue;
        else
            ++stats_.grantsFalse;
        net_.send(endpoint(), k, reply);
    };

    if (!e.test(k)) {
        // An INVALIDATE or PURGE(write) raced this upgrade; the cache
        // has converted (or will, by FIFO).
        grant(false);
        return;
    }
    if (e.count() == 1) {
        grant(true);
        return;
    }
    invalidateHolders(a, e, k, [grant] { grant(true); });
}

void
YfDirCtrl::processEject(const Message &msg)
{
    DynBitset &e = entryFor(msg.addr);
    if (!e.test(msg.proc)) {
        // Raced an INVALIDATE; nothing left to do.
        ++stats_.ejectsIgnored;
        return;
    }
    e.reset(msg.proc);
    if (msg.rw == RW::Write) {
        // Possibly a silent upgrade materialising: write it back.
        mem_.write(msg.addr, msg.data);
        ++stats_.ejectsData;
    } else {
        ++stats_.ejectsApplied;
    }
}

void
YfDirCtrl::onPutResolved(Addr a, ProcId requester, RW rw,
                         const Message &answer)
{
    DynBitset &e = entryFor(a);
    const auto owner = static_cast<ProcId>(e.findFirst());
    DIR2B_ASSERT(owner < cfg_.numProcs, "put resolved for block ", a,
                 " with no holder");

    Value data;
    bool writeBack;
    bool ownerGone;
    if (answer.kind == MsgKind::Eject) {
        ownerGone = true;
        if (answer.rw == RW::Write) {
            data = answer.data;
            writeBack = true;
        } else {
            // Clean exclusive copy ejected: memory is current.
            data = mem_.read(a);
            writeBack = false;
        }
    } else {
        // PutData; granted marks "was dirty" (the silent upgrade).
        ownerGone = rw == RW::Write;
        data = answer.data;
        writeBack = answer.granted;
    }

    if (ownerGone)
        e.reset(owner);
    if (rw == RW::Write) {
        e.clear();
        e.set(requester);
        supplyData(requester, a, data, writeBack);
        return;
    }
    e.set(requester);
    // If the old owner vanished, the requester is sole: grant
    // exclusive-clean so its own later writes are free.
    supplyData(requester, a, data, writeBack, e.count() == 1);
}

} // namespace dir2b
