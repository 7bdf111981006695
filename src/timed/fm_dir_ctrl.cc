#include "timed/fm_dir_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

FmDirCtrl::Entry &
FmDirCtrl::entryFor(Addr a)
{
    return map_.tryEmplace(a, cfg_.numProcs).first->second;
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
FmDirCtrl::processRequest(const Message &msg)
{
    ++stats_.requests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    Entry &e = entryFor(a);

    if (e.modified) {
        const auto owner = static_cast<ProcId>(e.present.findFirst());
        DIR2B_ASSERT(owner < cfg_.numProcs, "modified block ", a,
                     " with empty presence vector");
        Message put;
        if (consumeQueuedPut(a, owner, put)) {
            // The owner's eviction write-back doubles as the put.
            e.present.reset(owner);
            e.modified = false;
            finishRequest(k, a, msg.rw, put.data, true);
            return;
        }
        // Directed PURGE to the exact owner — the full map's whole
        // advantage over the two-bit broadcast.
        purge(a, owner, k, msg.rw);
        return;
    }

    if (msg.rw == RW::Write) {
        // A stale requester bit (its clean eject still in flight) is
        // cleared by finishRequest.
        invalidateHolders(a, e.present, k, [this, k, a] {
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

    // The entry is looked up again when the grant runs: an ack
    // barrier in between may have moved it.
    auto grantModified = [this, k, a] {
        entryFor(a).modified = true;
        grant(k, a, true);
    };

    if (!e.present.test(k) || e.modified) {
        // The requester's bit is gone: an INVALIDATE raced the
        // MREQUEST; the cache has converted (or will, by FIFO).
        grant(k, a, false);
        return;
    }
    if (e.present.count() == 1) {
        grantModified();
        return;
    }
    invalidateHolders(a, e.present, k, grantModified);
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
