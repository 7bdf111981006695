#include "timed/dir_ctrl_base.hh"

#include <sstream>

#include "util/logging.hh"

namespace dir2b
{

TimedDirCtrl::TimedDirCtrl(ModuleId id, const TimedConfig &cfg,
                           EventQueue &eq, TimedNetwork &net)
    : id_(id), cfg_(cfg), eq_(eq), net_(net)
{
#if DIR2B_TRACE
    if ((trc_ = cfg.tracer)) {
        trk_ = trc_->addTrack("ctrl" + std::to_string(id));
        busyTrk_ = trc_->addTrack("ctrl" + std::to_string(id) +
                                  ".busy");
    }
#endif
}

void
TimedDirCtrl::noteQueueDepth()
{
    DIR2B_TRC(trc_, counter(eq_.now(), trk_, "queue_depth",
                            queue_.size()));
}

std::string
TimedDirCtrl::stuckReport() const
{
    std::ostringstream os;
    os << "controller " << id_ << ": queue=[";
    for (std::size_t i = 0; i < queue_.size(); ++i)
        os << " " << toString(queue_[i].msg);
    os << " ] busy=[";
    for (const auto &[a, b] : busy_) {
        const char *kind = b.kind == Busy::Kind::AwaitingPut
                               ? "awaiting put"
                           : b.kind == Busy::Kind::AwaitingAcks
                               ? "awaiting acks"
                               : "supplying";
        os << " " << a << "(" << kind << ", req " << b.requester << ")";
    }
    os << " ]";
    return os.str();
}

void
TimedDirCtrl::receive(unsigned, const Message &msg)
{
    if (msg.kind == MsgKind::InvAck) {
        processInvAck(msg);
        return;
    }

    // Puts (and the equivalent in-flight EJECT-with-data) that answer
    // an outstanding query bypass the queue entirely: in the strictly
    // serial controller the query blocks everything, so its answer
    // must not queue behind itself.
    if (auto it = busy_.find(msg.addr);
        it != busy_.end() && it->second.kind == Busy::Kind::AwaitingPut) {
        // Only the queried holder's put answers: a clean EJECT from a
        // cache whose copy an earlier INVALIDATE already removed is
        // stale and is queued like any other.
        const ProcId owner = it->second.owner;
        const bool answers =
            (owner == invalidProc || msg.proc == owner) &&
            (msg.kind == MsgKind::PutData ||
             (msg.kind == MsgKind::Eject &&
              (msg.rw == RW::Write || ejectReadAnswersWait())));
        if (answers) {
            DIR2B_DEBUG("t=", eq_.now(), " K", id_,
                        " put answers wait: ", toString(msg));
            ++stats_.putsAwaited;
            stats_.putWait.sample(eq_.now() - it->second.since);
            DIR2B_TRC(trc_, complete(it->second.since, eq_.now(),
                                     busyTrk_, "await_put", msg.addr,
                                     it->second.requester));
            const ProcId requester = it->second.requester;
            const RW rw = it->second.rw;
            busy_.erase(it);
            onPutResolved(msg.addr, requester, rw, msg);
            scheduleDispatch();
            return;
        }
    } else if (msg.kind == MsgKind::PutData) {
        DIR2B_PANIC("controller ", id_, " received unsolicited ",
                    toString(msg));
    }

    queue_.push_back(Queued{msg, eq_.now()});
    if (msg.kind == MsgKind::MRequest)
        ++mreqsQueued_;
    stats_.queueDepth.sample(queue_.size());
    noteQueueDepth();
    scheduleDispatch();
}

void
TimedDirCtrl::processInvAck(const Message &msg)
{
    auto it = busy_.find(msg.addr);
    DIR2B_ASSERT(it != busy_.end() &&
                     it->second.kind == Busy::Kind::AwaitingAcks,
                 "unsolicited INVACK for block ", msg.addr);

    // The acking cache's possible stale MREQUEST preceded this ack on
    // its FIFO link, so if one exists it is in the queue now: delete
    // it (its sender has already converted to a write miss).
    for (std::size_t i = 0; mreqsQueued_ && i < queue_.size();) {
        const Message &q = queue_[i].msg;
        if (q.kind == MsgKind::MRequest && q.addr == msg.addr &&
            q.proc == msg.proc) {
            eraseQueued(i);
            ++stats_.mreqDeleted;
            DIR2B_TRC(trc_, instant(eq_.now(), trk_, "mreq_deleted",
                                    msg.addr, msg.proc));
            noteQueueDepth();
        } else {
            ++i;
        }
    }

    DIR2B_ASSERT(it->second.acksRemaining > 0, "ack underflow");
    if (--it->second.acksRemaining == 0) {
        stats_.ackWait.sample(eq_.now() - it->second.since);
        DIR2B_TRC(trc_, complete(it->second.since, eq_.now(), busyTrk_,
                                 "await_acks", msg.addr,
                                 it->second.requester));
        auto done = std::move(it->second.onAcked);
        busy_.erase(it);
        done();
        scheduleDispatch();
    }
}

void
TimedDirCtrl::takeCountedAcks(Addr a, unsigned n)
{
    const auto it = busy_.find(a);
    DIR2B_ASSERT(it != busy_.end() &&
                     it->second.kind == Busy::Kind::AwaitingAcks &&
                     it->second.acksRemaining > n,
                 "counted INVACKs for block ", a,
                 " would close or overrun its ack barrier");
    it->second.acksRemaining -= n;
}

void
TimedDirCtrl::eraseQueued(std::size_t i)
{
    if (queue_[i].msg.kind == MsgKind::MRequest)
        --mreqsQueued_;
    queue_.erase(i);
}

void
TimedDirCtrl::scheduleDispatch()
{
    if (dispatchScheduled_)
        return;
    dispatchScheduled_ = true;
    const Tick when = busyUntil_ > eq_.now() ? busyUntil_ - eq_.now()
                                             : 0;
    eq_.schedule(when, [this] {
        dispatchScheduled_ = false;
        dispatch();
    });
}

void
TimedDirCtrl::dispatch()
{
    if (eq_.now() < busyUntil_) {
        scheduleDispatch();
        return;
    }
    if (queue_.empty())
        return;

    // §3.2.5 option 1: strictly serial — while any transaction is in
    // flight, nothing else is serviced.  Option 2: only commands for
    // blocks with an active transaction are held back.
    std::size_t i = 0;
    if (!cfg_.perBlockConcurrency) {
        if (!busy_.empty())
            return;
    } else {
        while (i < queue_.size() && busy_.count(queue_[i].msg.addr))
            ++i;
        if (i == queue_.size())
            return;
    }

    const Message msg = queue_[i].msg;
    stats_.queueWait.sample(eq_.now() - queue_[i].at);
    eraseQueued(i);
    busyUntil_ = eq_.now() + cfg_.dirLatency;
    // The service span is the controller-occupancy window; naming it
    // by the command makes the Table 3-1 mix visible per track.
    DIR2B_TRC(trc_, complete(eq_.now(), busyUntil_, trk_,
                             mnemonic(msg.kind), msg.addr, msg.proc));
    noteQueueDepth();
    DIR2B_DEBUG("t=", eq_.now(), " K", id_, " process ", toString(msg));
    switch (msg.kind) {
      case MsgKind::Request:
        processRequest(msg);
        break;
      case MsgKind::MRequest:
        processMRequest(msg);
        break;
      case MsgKind::Eject:
        processEject(msg);
        break;
      default:
        DIR2B_PANIC("controller ", id_, " cannot process ",
                    toString(msg));
    }
    if (!queue_.empty())
        scheduleDispatch();
}

void
TimedDirCtrl::supplyData(ProcId k, Addr a, Value data, bool writeBack,
                         bool exclusiveGrant)
{
    if (writeBack)
        mem_.write(a, data);

    Message get;
    get.kind = MsgKind::GetData;
    get.proc = k;
    get.addr = a;
    get.data = data;
    get.granted = exclusiveGrant;

    // The block stays busy for the memory-access window; only once
    // the data has left the module may another transaction for it be
    // dispatched.  FIFO link order then guarantees the new holder has
    // its copy before any later invalidation or query reaches it.
    Busy b;
    b.kind = Busy::Kind::Supplying;
    b.requester = k;
    b.since = eq_.now();
    busy_[a] = std::move(b);
    // A DES knows the window's end up front: record the span now.
    DIR2B_TRC(trc_, complete(eq_.now(), eq_.now() + cfg_.memLatency,
                             busyTrk_, "supply", a, k));
    const unsigned dst = k;
    eq_.schedule(cfg_.memLatency, [this, dst, get, a] {
        net_.send(endpoint(), dst, get);
        busy_.erase(a);
        scheduleDispatch();
    });
}

void
TimedDirCtrl::grant(ProcId k, Addr a, bool yes)
{
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
}

void
TimedDirCtrl::invalidateHolders(Addr a, DynBitset &holders, ProcId except,
                                AckAction onAcked)
{
    unsigned sent = 0;
    for (std::size_t i = holders.findFirst(); i < holders.size();
         i = holders.findNext(i)) {
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
        holders.reset(i);
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
TimedDirCtrl::purge(Addr a, ProcId owner, ProcId requester, RW rw)
{
    Message purge;
    purge.kind = MsgKind::Purge;
    purge.proc = requester;
    purge.addr = a;
    purge.rw = rw;
    ++stats_.purges;
    awaitPut(a, requester, rw, owner);
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "purge_owner", a, owner));
    net_.send(endpoint(), owner, purge);
}

void
TimedDirCtrl::awaitPut(Addr a, ProcId requester, RW rw, ProcId owner)
{
    Busy b;
    b.kind = Busy::Kind::AwaitingPut;
    b.requester = requester;
    b.owner = owner;
    b.rw = rw;
    b.since = eq_.now();
    busy_[a] = std::move(b);
}

void
TimedDirCtrl::awaitAcks(Addr a, ProcId requester, unsigned count,
                        AckAction onAcked)
{
    DIR2B_ASSERT(count > 0, "awaitAcks with nothing to wait for");
    Busy b;
    b.kind = Busy::Kind::AwaitingAcks;
    b.requester = requester;
    b.acksRemaining = count;
    b.onAcked = std::move(onAcked);
    b.since = eq_.now();
    busy_[a] = std::move(b);
}

bool
TimedDirCtrl::consumeQueuedPut(Addr a, ProcId owner, Message &out)
{
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Message &q = queue_[i].msg;
        if (q.kind == MsgKind::Eject && q.addr == a &&
            (owner == invalidProc || q.proc == owner) &&
            (q.rw == RW::Write || ejectReadAnswersWait())) {
            out = q;
            eraseQueued(i);
            ++stats_.putsConsumed;
            DIR2B_TRC(trc_, instant(eq_.now(), trk_, "put_consumed", a,
                                    out.proc));
            noteQueueDepth();
            return true;
        }
    }
    return false;
}

unsigned
TimedDirCtrl::deleteQueuedMRequests(Addr a, ProcId except)
{
    unsigned deleted = 0;
    for (std::size_t i = 0; mreqsQueued_ && i < queue_.size();) {
        const Message &q = queue_[i].msg;
        if (q.kind == MsgKind::MRequest && q.addr == a &&
            q.proc != except) {
            eraseQueued(i);
            ++deleted;
        } else {
            ++i;
        }
    }
    stats_.mreqDeleted.inc(deleted);
    if (deleted) {
        DIR2B_TRC(trc_,
                  instant(eq_.now(), trk_, "mreq_deleted", a, deleted));
        noteQueueDepth();
    }
    return deleted;
}

} // namespace dir2b
