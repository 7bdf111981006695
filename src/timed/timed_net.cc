#include "timed/timed_net.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dir2b
{

TimedNetwork::TimedNetwork(EventQueue &eq, unsigned endpoints,
                           Tick latency, NetKind kind,
                           TraceRecorder *trc)
    : eq_(eq),
      latency_(latency),
      kind_(kind),
      handlers_(endpoints),
      portFreeAt_(endpoints, 0)
{
#if DIR2B_TRACE
    if ((trc_ = trc))
        trk_ = trc_->addTrack("net");
#else
    (void)trc;
#endif
}

void
TimedNetwork::connect(unsigned ep, Handler handler)
{
    DIR2B_ASSERT(ep < handlers_.size(), "connect to unknown endpoint ",
                 ep);
    handlers_[ep] = std::move(handler);
}

Tick
TimedNetwork::claimDeliveryAt(unsigned dst, Tick sentAt)
{
    Tick deliverAt = sentAt + latency_;
    switch (kind_) {
      case NetKind::Ideal:
        break;
      case NetKind::Crossbar: {
        const Tick free = portFreeAt_[dst];
        if (free > deliverAt) {
            stats_.portWaitCycles.inc(free - deliverAt);
            deliverAt = free;
        }
        portFreeAt_[dst] = deliverAt + 1;
        break;
      }
      case NetKind::Bus: {
        if (busFreeAt_ > deliverAt) {
            stats_.portWaitCycles.inc(busFreeAt_ - deliverAt);
            deliverAt = busFreeAt_;
        }
        busFreeAt_ = deliverAt + 1;
        ++stats_.busBusyCycles;
        break;
      }
    }
    return deliverAt;
}

void
TimedNetwork::connectBroadcast(GroupHandler handler)
{
    onBroadcast_ = std::move(handler);
}

Tick
TimedNetwork::post(unsigned src, unsigned dst, const Message &msg)
{
    DIR2B_ASSERT(dst < handlers_.size() && handlers_[dst],
                 "send to unconnected endpoint ", dst);
    ++stats_.messages;
    if (msg.kind == MsgKind::GetData || msg.kind == MsgKind::PutData)
        ++stats_.dataMessages;
    DIR2B_TRC(trc_, instant(eq_.now(), trk_, mnemonic(msg.kind),
                            msg.addr, src, dst));
    return claimDeliveryAt(dst, eq_.now());
}

void
TimedNetwork::send(unsigned src, unsigned dst, Message msg)
{
    eq_.scheduleAt(post(src, dst, msg), [this, src, dst, msg] {
        handlers_[dst](src, msg);
    });
}

void
TimedNetwork::sendCounted(unsigned src, unsigned dst, const Message &msg)
{
    eq_.countAt(dst, post(src, dst, msg));
}

void
TimedNetwork::broadcast(unsigned src, const std::vector<unsigned> &dsts,
                        Message msg)
{
    ++stats_.broadcasts;
    msg.broadcast = true;

    // A shared medium delivers a broadcast in ONE bus transaction:
    // every listener observes the same slot — the free fan-out that
    // makes the §2.5 bus schemes viable, and that a general
    // interconnection network does not offer.
    const bool bus = kind_ == NetKind::Bus;
    const Tick busAt = bus ? claimDeliveryAt(0, eq_.now()) : 0;
    ticks_.clear();
    Tick lastAt = 0;
    for (unsigned dst : dsts) {
        DIR2B_ASSERT(dst < handlers_.size() && handlers_[dst],
                     "broadcast to unconnected endpoint ", dst);
        ++stats_.messages;
        DIR2B_TRC(trc_, instant(eq_.now(), trk_, mnemonic(msg.kind),
                                msg.addr, src, dst));
        const Tick at = bus ? busAt : claimDeliveryAt(dst, eq_.now());
        // The copies land on a few distinct ticks (about two on a
        // contended crossbar), so a linear search finds the group.
        auto it = std::find_if(ticks_.begin(), ticks_.end(),
                               [at](const auto &t) {
                                   return t.first == at;
                               });
        if (it == ticks_.end()) {
            if (freeGroups_.empty()) {
                freeGroups_.push_back(
                    static_cast<std::uint32_t>(groups_.size()));
                groups_.emplace_back();
            }
            it = ticks_.emplace(ticks_.end(), at, freeGroups_.back());
            freeGroups_.pop_back();
        }
        groups_[it->second].dsts.push_back(dst);
        lastAt = std::max(lastAt, at);
    }
    for (const auto &[at, g] : ticks_) {
        groups_[g].src = src;
        groups_[g].msg = msg;
        groups_[g].last = at == lastAt;
        const auto copies =
            static_cast<std::uint32_t>(groups_[g].dsts.size());
        eq_.scheduleAt(at, [this, g = g] { deliverGroup(g); }, copies);
    }
}

void
TimedNetwork::deliverGroup(std::uint32_t g)
{
    // Out of the pool while it runs: a receiver may broadcast.
    Group grp = std::move(groups_[g]);
    onBroadcast_(grp.src, grp.msg, grp.dsts, grp.last);
    grp.dsts.clear();
    groups_[g] = std::move(grp);
    freeGroups_.push_back(g);
}

} // namespace dir2b
