/**
 * @file
 * Timed interconnection network.
 *
 * Endpoints are numbered 0..numProcs-1 for caches and
 * numProcs..numProcs+numModules-1 for memory controllers.  Delivery
 * preserves per-(source, destination) FIFO order — the property the
 * protocols rely on (e.g. a get(k,a) sent before a BROADINV(a,i) from
 * the same controller must arrive at cache k first).  With constant
 * latency and a FIFO-stable event queue that order holds by
 * construction; optional port contention serialises deliveries into
 * each destination at one message per cycle, which keeps FIFO per
 * (src,dst) because each message's delivery time is monotone in send
 * order.
 *
 * A broadcast is modelled as fan-out to the n-1 point-to-point links,
 * exactly as the two-bit paper costs it: every copy claims its own
 * port slot and counts as a message.  The copies that share a delivery
 * tick reach the broadcast receiver (TimedSystem) together, in
 * destination order, as one kernel event weighted by their number.
 * They would have had consecutive places in the kernel's FIFO, so this
 * changes no simulated outcome.  A message whose delivery does nothing
 * (sendCounted) is a count-only kernel event.
 */

#ifndef DIR2B_TIMED_TIMED_NET_HH
#define DIR2B_TIMED_TIMED_NET_HH

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "timed/timed_config.hh"
#include "util/types.hh"

namespace dir2b
{

/**
 * The NetStats field list: member, kind, description.  The stats dump
 * and the timed series walk it; adding a counter is one line here.
 */
#define DIR2B_NET_STATS(X)                                                  \
    X(messages, Counter, "point-to-point deliveries")                       \
    X(broadcasts, Counter, "broadcast operations")                          \
    X(dataMessages, Counter, "messages carrying a block")                   \
    X(portWaitCycles, Counter, "cycles queued for a busy port or the bus")  \
    X(busBusyCycles, Counter, "bus occupancy, cycles (bus network only)")

/** Statistics of the timed network. */
struct NetStats
{
#define X(m, kind, desc) Counter m;
    DIR2B_NET_STATS(X)
#undef X
};

/** The NetStats field list as data. */
inline constexpr StatField<NetStats, Counter> netStatFields[] = {
#define X(m, kind, desc) {&NetStats::m, #m, desc, MetricKind::kind},
    DIR2B_NET_STATS(X)
#undef X
};

/** Timed network with selectable contention model (NetKind). */
class TimedNetwork
{
  public:
    using Handler = std::function<void(unsigned src, const Message &)>;

    /** Receiver of the copies of one broadcast that share a delivery
     *  tick, in destination order; `last` marks the group delivered
     *  last (that broadcast's final copy is its last element). */
    using GroupHandler =
        std::function<void(unsigned src, const Message &,
                           std::span<const unsigned> dsts, bool last)>;

    /** @param trc optional trace recorder: every message becomes an
     *  instant event (paper mnemonic, src/dst endpoints) on a "net"
     *  track. */
    TimedNetwork(EventQueue &eq, unsigned endpoints, Tick latency,
                 NetKind kind, TraceRecorder *trc = nullptr);

    /** Register the receiver of endpoint ep. */
    void connect(unsigned ep, Handler handler);

    /** Register the receiver of broadcast copies. */
    void connectBroadcast(GroupHandler handler);

    /** Send one message; delivered after the network latency. */
    void send(unsigned src, unsigned dst, Message msg);

    /** send() for a message whose delivery does nothing: a count-only
     *  kernel event.  A later real message to dst must follow it. */
    void sendCounted(unsigned src, unsigned dst, const Message &msg);

    /** Fan a message out to every listed destination. */
    void broadcast(unsigned src, const std::vector<unsigned> &dsts,
                   Message msg);

    const NetStats &stats() const { return stats_; }

  private:
    /** One delivery tick's copies of a broadcast (pooled). */
    struct Group
    {
        unsigned src = 0;
        Message msg;
        bool last = false;
        std::vector<unsigned> dsts;
    };

    /** Claim transmission capacity for a message sent at sentAt;
     *  returns the delivery tick and accrues contention statistics. */
    Tick claimDeliveryAt(unsigned dst, Tick sentAt);

    /** Count, trace and claim a point-to-point message sent now;
     *  returns its delivery tick. */
    Tick post(unsigned src, unsigned dst, const Message &msg);

    void deliverGroup(std::uint32_t g);

    EventQueue &eq_;
    Tick latency_;
    NetKind kind_;
    TraceRecorder *trc_ = nullptr;
    std::uint32_t trk_ = 0;
    std::vector<Handler> handlers_;
    GroupHandler onBroadcast_;
    std::vector<Tick> portFreeAt_;
    Tick busFreeAt_ = 0;
    NetStats stats_;
    std::vector<Group> groups_;
    std::vector<std::uint32_t> freeGroups_;
    /** broadcast()'s (delivery tick, group) pairs. */
    std::vector<std::pair<Tick, std::uint32_t>> ticks_;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_NET_HH
