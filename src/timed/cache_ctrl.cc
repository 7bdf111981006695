#include "timed/cache_ctrl.hh"

#include "util/logging.hh"

namespace dir2b
{

TimedCacheCtrl::TimedCacheCtrl(ProcId id, const TimedConfig &cfg,
                               EventQueue &eq, TimedNetwork &net,
                               CompletionSink &sink, CacheBank &bank)
    : id_(id), cfg_(cfg), eq_(eq), net_(net), sink_(sink), bank_(bank)
{
#if DIR2B_TRACE
    if ((trc_ = cfg.tracer))
        trk_ = trc_->addTrack("cache" + std::to_string(id));
#endif
}

unsigned
TimedCacheCtrl::homeEndpoint(Addr a) const
{
    return cfg_.numProcs + static_cast<unsigned>(a % cfg_.numModules);
}

void
TimedCacheCtrl::sendToHome(Addr a, Message msg)
{
    net_.send(id_, homeEndpoint(a), msg);
}

void
TimedCacheCtrl::dropLine(Addr a, bool converting)
{
    DIR2B_ASSERT(converting || !txn_ || txn_->phase != Phase::AwaitGrant ||
                     txn_->ref.addr != a,
                 "cache ", id_, " dropped block ", a,
                 " while upgrading it, outside a conversion");
    bank_.invalidate(id_, a);
}

void
TimedCacheCtrl::chargeAbsent(const Message &msg)
{
    if (!cfg_.snoopFilter) {
        ++stats_.stolenCycles;
        return;
    }
    ++stats_.filteredCmds;
    if (msg.kind == MsgKind::BroadInv || msg.kind == MsgKind::Invalidate)
        DIR2B_TRC(trc_, instant(eq_.now(), trk_, "filtered", msg.addr));
}

void
TimedCacheCtrl::complete(Value v)
{
    DIR2B_ASSERT(txn_, "completing with no transaction");
    DIR2B_TRC(trc_, end(eq_.now(), trk_, txn_->op));
    stats_.latency.sample(eq_.now() - txn_->start);
    DIR2B_ASSERT(!txn_->ref.write || v == txn_->wval,
                 "write completion value mismatch");
    const MemRef ref = txn_->ref;
    txn_.reset();
    sink_.onComplete(ref, v);
}

void
TimedCacheCtrl::processorRequest(const MemRef &ref, Value wval)
{
    DIR2B_DEBUG("t=", eq_.now(), " C", id_, " proc ", toString(ref));
    DIR2B_ASSERT(!txn_, "cache ", id_, " already has an outstanding "
                 "transaction");
    DIR2B_ASSERT(ref.proc == id_, "reference routed to wrong cache");
    txn_ = Txn{Phase::AwaitData, ref, wval, eq_.now()};

    CacheLine *l = bank_.lookup(id_, ref.addr);
    if (l) {
        if (!ref.write) {
            ++stats_.readHits;
            txn_->op = "read_hit";
            DIR2B_TRC(trc_, begin(eq_.now(), trk_, txn_->op, ref.addr));
            txn_->phase = Phase::Completing;
            const Value v = l->value;
            eq_.schedule(cfg_.cacheLatency, [this, v] { complete(v); });
            return;
        }
        if (l->dirty()) {
            ++stats_.writeHits;
            txn_->op = "write_hit";
            DIR2B_TRC(trc_, begin(eq_.now(), trk_, txn_->op, ref.addr));
            txn_->phase = Phase::Completing;
            l->value = wval;
            eq_.schedule(cfg_.cacheLatency,
                         [this, wval] { complete(wval); });
            return;
        }
        if (tryLocalWrite(l, wval)) {
            // Silent upgrade (Yen-Fu): no global transaction at all.
            ++stats_.writeHits;
            txn_->op = "write_hit";
            DIR2B_TRC(trc_, begin(eq_.now(), trk_, txn_->op, ref.addr));
            txn_->phase = Phase::Completing;
            eq_.schedule(cfg_.cacheLatency,
                         [this, wval] { complete(wval); });
            return;
        }

        // §3.2.4: write hit on an unmodified block -> MREQUEST.
        ++stats_.writeHits;
        ++stats_.mrequests;
        txn_->op = "upgrade";
        txn_->phaseStart = eq_.now();
        DIR2B_TRC(trc_, begin(eq_.now(), trk_, txn_->op, ref.addr));
        DIR2B_TRC(trc_, begin(eq_.now(), trk_, "await_grant", ref.addr));
        txn_->phase = Phase::AwaitGrant;
        Message m;
        m.kind = MsgKind::MRequest;
        m.proc = id_;
        m.addr = ref.addr;
        sendToHome(ref.addr, m);
        return;
    }

    if (ref.write) {
        ++stats_.writeMisses;
        txn_->op = "write_miss";
    } else {
        ++stats_.readMisses;
        txn_->op = "read_miss";
    }
    DIR2B_TRC(trc_, begin(eq_.now(), trk_, txn_->op, ref.addr));
    startMiss();
}

void
TimedCacheCtrl::startMiss()
{
    const MemRef &ref = txn_->ref;

    // §3.2.1 replacement.
    CacheLine &victim = bank_.victimFor(id_, ref.addr);
    if (victim.valid()) {
        Message ej;
        ej.kind = MsgKind::Eject;
        ej.proc = id_;
        ej.addr = victim.addr;
        if (victim.dirty()) {
            ej.rw = RW::Write;
            ej.data = victim.value;
            ++stats_.writebacksSent;
        } else {
            ej.rw = RW::Read;
        }
        sendToHome(victim.addr, ej);
        dropLine(victim.addr);
    }

    Message rq;
    rq.kind = MsgKind::Request;
    rq.proc = id_;
    rq.addr = ref.addr;
    rq.rw = ref.write ? RW::Write : RW::Read;
    txn_->phase = Phase::AwaitData;
    txn_->phaseStart = eq_.now();
    DIR2B_TRC(trc_, begin(eq_.now(), trk_, "await_data", ref.addr));
    sendToHome(ref.addr, rq);
}

void
TimedCacheCtrl::convertToWriteMiss()
{
    // The paper's rule: treat the BROADINV as MGRANTED(k, false); the
    // processor's next action is REQUEST(k, a, "write").  Our copy was
    // just invalidated, so the frame is free and no EJECT is needed.
    ++stats_.mrequestConversions;
    stats_.grantWait.sample(eq_.now() - txn_->phaseStart);
    DIR2B_TRC(trc_, end(eq_.now(), trk_, "await_grant"));
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "convert_to_write_miss",
                            txn_->ref.addr));
    Message rq;
    rq.kind = MsgKind::Request;
    rq.proc = id_;
    rq.addr = txn_->ref.addr;
    rq.rw = RW::Write;
    txn_->phase = Phase::AwaitData;
    txn_->phaseStart = eq_.now();
    DIR2B_TRC(trc_,
              begin(eq_.now(), trk_, "await_data", txn_->ref.addr));
    sendToHome(txn_->ref.addr, rq);
}

void
TimedCacheCtrl::receive(unsigned, const Message &msg)
{
    DIR2B_DEBUG("t=", eq_.now(), " C", id_, " recv ", toString(msg));
    switch (msg.kind) {
      case MsgKind::GetData:
        onGetData(msg);
        return;
      case MsgKind::MGranted:
        onMGranted(msg);
        return;
      case MsgKind::BroadInv:
      case MsgKind::Invalidate:
        onInvalidate(msg);
        return;
      case MsgKind::BroadQuery:
      case MsgKind::Purge:
        onQuery(msg);
        return;
      default:
        DIR2B_PANIC("cache ", id_, " received unexpected ",
                    toString(msg));
    }
}

void
TimedCacheCtrl::onGetData(const Message &msg)
{
    DIR2B_ASSERT(txn_ && txn_->phase == Phase::AwaitData &&
                     txn_->ref.addr == msg.addr,
                 "cache ", id_, " got unsolicited data for block ",
                 msg.addr);
    stats_.dataWait.sample(eq_.now() - txn_->phaseStart);
    DIR2B_TRC(trc_, end(eq_.now(), trk_, "await_data"));
    const bool write = txn_->ref.write;
    const Value v = write ? txn_->wval : msg.data;
    bank_.fill(id_, msg.addr,
               write ? LineState::Modified : readFillState(msg), v);
    txn_->phase = Phase::Completing;
    eq_.schedule(cfg_.cacheLatency, [this, v] { complete(v); });
}

void
TimedCacheCtrl::onMGranted(const Message &msg)
{
    if (!txn_ || txn_->phase != Phase::AwaitGrant ||
        txn_->ref.addr != msg.addr) {
        // Stale reply: the BROADINV that raced us already converted
        // this transaction into a write miss.
        ++stats_.staleGrantsIgnored;
        DIR2B_TRC(trc_,
                  instant(eq_.now(), trk_, "stale_grant", msg.addr));
        return;
    }
    stats_.grantWait.sample(eq_.now() - txn_->phaseStart);
    DIR2B_TRC(trc_, end(eq_.now(), trk_, "await_grant"));
    DIR2B_ASSERT(msg.granted,
                 "MGRANTED(false) while still holding a valid copy of ",
                 msg.addr, ": the BROADINV must arrive first (FIFO)");
    CacheLine *l = bank_.lookup(id_, msg.addr, false);
    DIR2B_ASSERT(l && !l->dirty(), "grant for block ", msg.addr,
                 " without a clean local copy");
    l->state = LineState::Modified;
    l->value = txn_->wval;
    // Leave AwaitGrant *now*: a Purge/Invalidate arriving during the
    // one-cycle completion window must not convert this transaction
    // (the write is already serialised at the controller).
    txn_->phase = Phase::Completing;
    const Value v = txn_->wval;
    eq_.schedule(cfg_.cacheLatency, [this, v] { complete(v); });
}

void
TimedCacheCtrl::onInvalidate(const Message &msg)
{
    // The parameter k of BROADINV(a,k) names the cache that must NOT
    // invalidate; the network already excludes it, but check anyway
    // (§3.2.4: "If it were not there cache k would invalidate the
    // block it wants to modify!").
    if (msg.proc == id_)
        return;

    // Every recipient acknowledges after taking its action (sent at
    // the end of this handler); the ack necessarily follows any
    // converted REQUEST on our FIFO link to the controller, which is
    // what lets the controller flush our stale MREQUEST.
    const CacheLine *l = bank_.lookup(id_, msg.addr, false);
    if (!l) {
        chargeAbsent(msg);
        sendInvAck(msg.addr);
        return;
    }
    ++stats_.stolenCycles;

    if (txn_ && txn_->phase == Phase::AwaitGrant &&
        txn_->ref.addr == msg.addr) {
        // §3.2.5: treat as MGRANTED(id_, false).
        dropLine(msg.addr, true);
        ++stats_.invalidationsApplied;
        convertToWriteMiss();
        sendInvAck(msg.addr);
        return;
    }

    DIR2B_ASSERT(!l->dirty(), "invalidation hit a dirty copy of ",
                 msg.addr, " in cache ", id_);
    dropLine(msg.addr);
    ++stats_.invalidationsApplied;
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "invalidated", msg.addr));
    sendInvAck(msg.addr);
}

void
TimedCacheCtrl::sendInvAck(Addr a)
{
    Message ack;
    ack.kind = MsgKind::InvAck;
    ack.proc = id_;
    ack.addr = a;
    sendToHome(a, ack);
}

void
TimedCacheCtrl::onQuery(const Message &msg)
{
    if (msg.proc == id_)
        return;

    // Not the owner: the broadcast was a (useless) check.  A block we
    // ejected moments ago is the EJECT-in-flight race; the controller
    // consumes our put when it arrives.
    CacheLine *l = bank_.lookup(id_, msg.addr, false);
    if (!l) {
        chargeAbsent(msg);
        return;
    }
    ++stats_.stolenCycles;
    if (!l->dirty())
        return;

    ++stats_.queriesAnswered;
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, "query_answered",
                            msg.addr, msg.rw == RW::Write));
    Message put;
    put.kind = MsgKind::PutData;
    put.proc = id_;
    put.addr = msg.addr;
    put.data = l->value;
    sendToHome(msg.addr, put);

    if (msg.rw == RW::Read) {
        // §3.2.2: reset the modified bit, keep a clean copy.
        l->state = LineState::Shared;
    } else {
        // §3.2.3: reset the valid bit.
        dropLine(msg.addr);
        ++stats_.invalidationsApplied;
    }
}

} // namespace dir2b
