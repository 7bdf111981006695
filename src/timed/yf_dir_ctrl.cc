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
        const auto owner = static_cast<ProcId>(e.findFirst());
        Message put;
        if (consumeQueuedPut(a, owner, put)) {
            // The ejection already in our queue is the answer; the
            // resolution path handles dirty and clean ejects alike.
            onPutResolved(a, k, msg.rw, put);
            return;
        }
        purge(a, owner, k, msg.rw);
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

    if (!e.test(k)) {
        // An INVALIDATE or PURGE(write) raced this upgrade; the cache
        // has converted (or will, by FIFO).
        grant(k, a, false);
        return;
    }
    if (e.count() == 1) {
        grant(k, a, true);
        return;
    }
    invalidateHolders(a, e, k, [this, k, a] { grant(k, a, true); });
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
    DIR2B_ASSERT(answer.proc == owner, "put for block ", a, " from ",
                 answer.proc, ", not its sole holder ", owner);

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
