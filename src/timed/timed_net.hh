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
 * exactly as the two-bit paper costs it.
 */

#ifndef DIR2B_TIMED_TIMED_NET_HH
#define DIR2B_TIMED_TIMED_NET_HH

#include <functional>
#include <vector>

#include "net/message.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "timed/timed_config.hh"
#include "util/types.hh"

namespace dir2b
{

/** Timed network with selectable contention model (NetKind). */
class TimedNetwork
{
  public:
    using Handler = std::function<void(unsigned src, const Message &)>;

    /** @param trc optional trace recorder: every message becomes an
     *  instant event (paper mnemonic, src/dst endpoints) on a "net"
     *  track. */
    TimedNetwork(EventQueue &eq, unsigned endpoints, Tick latency,
                 NetKind kind, TraceRecorder *trc = nullptr);

    /** Register the receiver of endpoint ep. */
    void connect(unsigned ep, Handler handler);

    /** Send one message; delivered after the network latency. */
    void send(unsigned src, unsigned dst, Message msg);

    /** Fan a message out to every listed destination. */
    void broadcast(unsigned src, const std::vector<unsigned> &dsts,
                   Message msg);

    std::uint64_t messagesSent() const { return messages_.value(); }
    std::uint64_t broadcastsSent() const { return broadcasts_.value(); }
    std::uint64_t dataMessages() const { return dataMsgs_.value(); }

    /** Total cycles messages spent queued for busy ports/the bus. */
    std::uint64_t portWaitCycles() const { return portWait_.value(); }

    /** Bus occupancy in cycles (Bus kind only). */
    std::uint64_t busBusyCycles() const { return busBusy_.value(); }

  private:
    /** Claim transmission capacity for a message sent at sentAt;
     *  returns the delivery tick and accrues contention statistics. */
    Tick claimDeliveryAt(unsigned dst, Tick sentAt);

    EventQueue &eq_;
    Tick latency_;
    NetKind kind_;
    TraceRecorder *trc_ = nullptr;
    std::uint32_t trk_ = 0;
    std::vector<Handler> handlers_;
    std::vector<Tick> portFreeAt_;
    Tick busFreeAt_ = 0;
    Counter messages_;
    Counter broadcasts_;
    Counter dataMsgs_;
    Counter portWait_;
    Counter busBusy_;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_NET_HH
