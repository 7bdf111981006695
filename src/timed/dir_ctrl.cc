#include "timed/dir_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

void
TwoBitDirCtrl::finishRequest(ProcId k, Addr a, RW rw, Value data,
                             bool writeBack)
{
    dir_.set(a, rw == RW::Read
                    ? (dir_.get(a) == GlobalState::Absent
                           ? GlobalState::Present1
                           : GlobalState::PresentStar)
                    : GlobalState::PresentM);
    supplyData(k, a, data, writeBack);
}

const std::vector<unsigned> &
TwoBitDirCtrl::procsExcept(ProcId k)
{
    dsts_.clear();
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        if (p != k)
            dsts_.push_back(p);
    }
    return dsts_;
}

void
TwoBitDirCtrl::onPutResolved(Addr a, ProcId requester, RW rw,
                             const Message &answer)
{
    // §3.2.2/§3.2.3: write back the owner's data and forward it.  If
    // the put was really the owner's ejection, the requester ends up
    // with the only copy, so a read can take the exact Present1 state
    // instead of the lossy Present*.
    if (answer.kind == MsgKind::Eject && rw == RW::Read) {
        dir_.set(a, GlobalState::Absent); // finishRequest -> Present1
    }
    finishRequest(requester, a, rw, answer.data, true);
}

void
TwoBitDirCtrl::broadcastInvalidate(Addr a, ProcId except,
                                   AckAction onAcked)
{
    ++stats_.broadInvs;

    // Delete queued MREQUEST(j, a), j != except: the BROADINV below
    // doubles as their MGRANTED(j, false) (§3.2.5's scenario,
    // "Deletes MREQUEST(j,a) from the queue").  In-flight ones are
    // caught by the ack barrier.
    deleteQueuedMRequests(a, except);

    Message inv;
    inv.kind = MsgKind::BroadInv;
    inv.proc = except;
    inv.addr = a;
    const std::vector<unsigned> &dsts = procsExcept(except);
    awaitAcks(a, except, static_cast<unsigned>(dsts.size()),
              std::move(onAcked));
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "broadinv_fanout", a,
                            dsts.size()));
    net_.broadcast(endpoint(), dsts, inv);
}

void
TwoBitDirCtrl::processRequest(const Message &msg)
{
    ++stats_.requests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;
    const GlobalState st = dir_.get(a);

    if (st == GlobalState::PresentM) {
        // The modified copy lives in some unknown cache — unless its
        // EJECT(write) already sits in our queue (the eviction race),
        // in which case it *is* the put.
        Message put;
        if (consumeQueuedPut(a, invalidProc, put)) {
            finishRequest(k, a, msg.rw, put.data, true);
            return;
        }
        ++stats_.broadQueries;
        Message q;
        q.kind = MsgKind::BroadQuery;
        q.proc = k;
        q.addr = a;
        q.rw = msg.rw;
        const std::vector<unsigned> &dsts = procsExcept(k);
        awaitPut(a, k, msg.rw, invalidProc);
        DIR2B_TRC(trc_, instant(eq_.now(), trk_, "broadquery_fanout", a,
                                dsts.size()));
        net_.broadcast(endpoint(), dsts, q);
        return;
    }

    if (msg.rw == RW::Write && isPresentClean(st)) {
        // Invalidate every copy and only then supply the block; the
        // ack barrier also flushes stale MREQUESTs out of the queue.
        broadcastInvalidate(a, k, [this, k, a] {
            finishRequest(k, a, RW::Write, mem_.read(a), false);
        });
        return;
    }
    finishRequest(k, a, msg.rw, mem_.read(a), false);
}

void
TwoBitDirCtrl::processMRequest(const Message &msg)
{
    ++stats_.mrequests;
    const Addr a = msg.addr;
    const ProcId k = msg.proc;

    auto grantModified = [this, k, a] {
        dir_.set(a, GlobalState::PresentM);
        grant(k, a, true);
    };

    switch (dir_.get(a)) {
      case GlobalState::Present1:
        // The single copy is the requester's: grant, no broadcast —
        // the payoff for keeping Present1 encoded (§3.2.4 case 1).
        grantModified();
        break;
      case GlobalState::PresentStar:
        // Grant only after every other copy is dead and every stale
        // MREQUEST has been deleted (ack barrier).
        broadcastInvalidate(a, k, grantModified);
        break;
      default:
        // The requester's copy was invalidated while this MREQUEST
        // was in flight; by FIFO it has already seen the BROADINV and
        // converted, so this refusal will be ignored as stale.
        grant(k, a, false);
        break;
    }
}

void
TwoBitDirCtrl::processEject(const Message &msg)
{
    if (msg.rw == RW::Read) {
        // Deliberately ignored (see the class comment).
        ++stats_.ejectsIgnored;
        return;
    }
    // A dirty ejection that did not race a query: write back, reclaim.
    const GlobalState st = dir_.get(msg.addr);
    DIR2B_ASSERT(st == GlobalState::PresentM, "EJECT(write) for block ",
                 msg.addr, " in state ", toString(st));
    mem_.write(msg.addr, msg.data);
    dir_.set(msg.addr, GlobalState::Absent);
    ++stats_.ejectsData;
}

} // namespace dir2b
