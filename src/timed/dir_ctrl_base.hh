/**
 * @file
 * Shared machinery of timed memory controllers (K_j of Figure 3-1).
 *
 * Every timed scheme (two-bit, full map, Yen-Fu) runs on the same
 * §3.2.5 skeleton:
 *
 *  - a request queue with delete-anywhere logic (a RingFifo, so
 *    enqueueing allocates nothing in the steady state), and one
 *    command switch that hands each dequeued REQUEST, MREQUEST or
 *    EJECT to the scheme;
 *  - the serial / per-block-concurrent dispatch disciplines;
 *  - per-block busy windows: AwaitingPut (a query's data response is
 *    outstanding), AwaitingAcks (invalidations are being confirmed),
 *    and Supplying (the data has not left the module yet);
 *  - consumption of an in-flight EJECT(write) as the put() response
 *    (the eviction/query race);
 *  - stale-MREQUEST deletion at INVACK time (a cache's MREQUEST
 *    always precedes its ack on the same FIFO link, so the ack
 *    barrier flushes every stale upgrade before anything else can be
 *    dispatched for the block);
 *  - the commands themselves: MGRANTED replies, data supply, directed
 *    INVALIDATEs closed by the ack barrier, and directed PURGEs.
 *
 * A subclass keeps its own directory state and makes the decisions:
 * processRequest(), processMRequest() and processEject() pick the
 * commands, and onPutResolved() finishes a query.
 *
 * The INVACKs of caches that held no copy are settled by arithmetic
 * (takeCountedAcks()), on two invariants:
 *
 *  - a cache awaiting MGRANTED holds its block (only a conversion
 *    drops it), so a cache without a copy has no stale MREQUEST;
 *  - a window's last INVACK sent is the last delivered, as all go to
 *    this controller's port, whose slots are claimed in send order;
 *    that ack is always a real delivery and closes the barrier.
 */

#ifndef DIR2B_TIMED_DIR_CTRL_BASE_HH
#define DIR2B_TIMED_DIR_CTRL_BASE_HH

#include <string>

#include "memory/backing_store.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "timed/timed_config.hh"
#include "timed/timed_net.hh"
#include "util/bitset.hh"
#include "util/flat_map.hh"
#include "util/inline_function.hh"
#include "util/ring_fifo.hh"

namespace dir2b
{

class TwoBitDirectory;

/**
 * The DirCtrlStats field lists: counters (member, kind, description)
 * and histograms (member, bucket width, buckets, description).  The
 * stats dump and the timed series walk them; adding a counter is one
 * line here.
 */
#define DIR2B_DIR_CTRL_COUNTERS(X)                                          \
    X(requests, Counter, "REQUESTs served")                                 \
    X(mrequests, Counter, "MREQUESTs served")                               \
    X(ejectsData, Counter, "EJECT(write) write-backs applied")              \
    X(ejectsIgnored, Counter, "EJECT(read) notifications dropped")          \
    X(ejectsApplied, Counter, "EJECT(read) presence-bit clears")            \
    X(broadInvs, Counter, "BROADINV broadcasts (two-bit)")                  \
    X(broadQueries, Counter, "BROADQUERY broadcasts (two-bit)")             \
    X(directedInvs, Counter, "INVALIDATE directed sends")                   \
    X(purges, Counter, "PURGE directed sends")                              \
    X(grantsTrue, Counter, "MGRANTED(true) replies")                        \
    X(grantsFalse, Counter, "MGRANTED(false) replies")                      \
    X(mreqDeleted, Counter, "stale MREQUESTs deleted from the queue")       \
    X(putsConsumed, Counter, "queued EJECT(write) used as put()")           \
    X(putsAwaited, Counter, "queries resolved by a later put")

#define DIR2B_DIR_CTRL_HISTOGRAMS(X)                                        \
    X(queueDepth, 1, 32, "commands queued at each arrival")                 \
    X(queueWait, 4, 64, "command queue residency, cycles")                  \
    X(ackWait, 2, 64, "invalidation-ack barrier wait, cycles")              \
    X(putWait, 4, 64, "query to answering put, cycles")

/** Statistics shared by every timed controller. */
struct DirCtrlStats
{
#define X(m, kind, desc) Counter m;
    DIR2B_DIR_CTRL_COUNTERS(X)
#undef X
#define X(m, width, buckets, desc) Histogram m{width, buckets};
    DIR2B_DIR_CTRL_HISTOGRAMS(X)
#undef X
};

/** The DirCtrlStats field lists as data. */
inline constexpr StatField<DirCtrlStats, Counter> dirCtrlCounters[] = {
#define X(m, kind, desc) {&DirCtrlStats::m, #m, desc, MetricKind::kind},
    DIR2B_DIR_CTRL_COUNTERS(X)
#undef X
};
inline constexpr StatField<DirCtrlStats, Histogram> dirCtrlHistograms[] = {
#define X(m, width, buckets, desc) {&DirCtrlStats::m, #m, desc},
    DIR2B_DIR_CTRL_HISTOGRAMS(X)
#undef X
};

/** Abstract timed memory controller. */
class TimedDirCtrl
{
  public:
    TimedDirCtrl(ModuleId id, const TimedConfig &cfg, EventQueue &eq,
                 TimedNetwork &net);
    virtual ~TimedDirCtrl() = default;

    /** Incoming network message. */
    void receive(unsigned src, const Message &msg);

    const DirCtrlStats &stats() const { return stats_; }
    const BackingStore &memory() const { return mem_; }

    /** Take n INVACKs for block a from caches without a copy, with
     *  at least one real ack still to come (see the class comment). */
    void takeCountedAcks(Addr a, unsigned n);

    /** True when no request is queued or in flight. */
    bool quiesced() const { return queue_.empty() && busy_.empty(); }

    /** Commands currently queued (telemetry gauge). */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Render queued and in-flight work (diagnostics). */
    std::string stuckReport() const;

    /** The tiered 2-bit directory, when this controller has one
     *  (aggregation hook for TimedRunResult::dirStore). */
    virtual const TwoBitDirectory *twoBitDir() const { return nullptr; }

  protected:
    /** What runs once an invalidation's acks are all in: a move-only
     *  callable stored inline in the busy entry (captures stay within
     *  a controller pointer, a requester and an address). */
    using AckAction = InlineFunction<32>;

    /** One block's active transaction. */
    struct Busy
    {
        enum class Kind { Supplying, AwaitingPut, AwaitingAcks };
        Kind kind;
        ProcId requester;
        /** AwaitingPut: the queried holder, or invalidProc when a
         *  broadcast query leaves it unknown; only its put answers. */
        ProcId owner = invalidProc;
        RW rw;
        unsigned acksRemaining = 0;
        AckAction onAcked;
        Tick since = 0; ///< when this busy window opened
    };

    /** Decide one dequeued REQUEST, MREQUEST or EJECT. */
    virtual void processRequest(const Message &msg) = 0;
    virtual void processMRequest(const Message &msg) = 0;
    virtual void processEject(const Message &msg) = 0;

    /**
     * A put answered a waiting query.  'answer' is the raw message:
     * a PutData from the queried owner, or the owner's in-flight
     * EJECT (write — with data — always; read only for protocols
     * whose queried holder may be clean, see ejectReadAnswersWait()).
     */
    virtual void onPutResolved(Addr a, ProcId requester, RW rw,
                               const Message &answer) = 0;

    /**
     * Whether a clean EJECT(read) can answer an outstanding query.
     * False for the two-bit and full-map controllers (they only query
     * dirty owners); true for Yen-Fu, whose queried sole holder may
     * hold a clean exclusive copy and eject it while the query is in
     * flight.
     */
    virtual bool ejectReadAnswersWait() const { return false; }

    unsigned endpoint() const { return cfg_.numProcs + id_; }

    /** Memory access + busy supply window + GetData send.  The
     *  subclass updates its directory state before calling this.
     *  exclusiveGrant marks the fill exclusive-clean (Yen-Fu). */
    void supplyData(ProcId k, Addr a, Value data, bool writeBack,
                    bool exclusiveGrant = false);

    /** MGRANTED(k, a, yes): count it and send it.  The subclass
     *  updates its directory state before calling this. */
    void grant(ProcId k, Addr a, bool yes);

    /** Directed INVALIDATE to every holder in `holders` except
     *  `except`, clearing their bits (`except`'s own bit is left as
     *  it is).  Runs onAcked once every recipient has acknowledged,
     *  at once if there were none. */
    void invalidateHolders(Addr a, DynBitset &holders, ProcId except,
                           AckAction onAcked);

    /** Directed PURGE(a, requester, rw) to the block's owner, and the
     *  AwaitingPut window for its answer. */
    void purge(Addr a, ProcId owner, ProcId requester, RW rw);

    /** Enter the AwaitingPut busy state for block a; owner is the
     *  queried holder (invalidProc: unknown, any put answers). */
    void awaitPut(Addr a, ProcId requester, RW rw, ProcId owner);

    /** Enter the AwaitingAcks busy state for block a. */
    void awaitAcks(Addr a, ProcId requester, unsigned count,
                   AckAction onAcked);

    /** Pull owner's queued EJECT for block a out of the queue, if
     *  any (write always; read only under ejectReadAnswersWait()). */
    bool consumeQueuedPut(Addr a, ProcId owner, Message &out);

    /** Delete queued MREQUEST(j != except, a); returns count. */
    unsigned deleteQueuedMRequests(Addr a, ProcId except);

    void scheduleDispatch();

    ModuleId id_;
    const TimedConfig &cfg_;
    EventQueue &eq_;
    TimedNetwork &net_;
    BackingStore mem_;
    DirCtrlStats stats_;
    TraceRecorder *trc_ = nullptr;
    std::uint32_t trk_ = 0;     ///< service-span track ("ctrlN")
    std::uint32_t busyTrk_ = 0; ///< busy-window track ("ctrlN.busy")

  private:
    /** A queued command, stamped with its arrival tick so dispatch
     *  can attribute queue residency. */
    struct Queued
    {
        Message msg;
        Tick at;
    };

    void dispatch();
    void processInvAck(const Message &msg);
    void noteQueueDepth();
    /** Remove queue_[i], keeping the MREQUEST count exact. */
    void eraseQueued(std::size_t i);

    RingFifo<Queued> queue_;
    /** MREQUESTs currently in queue_: the INVACK path scans the queue
     *  for a stale one only when this is nonzero. */
    std::size_t mreqsQueued_ = 0;
    FlatMap<Addr, Busy> busy_;
    Tick busyUntil_ = 0;
    bool dispatchScheduled_ = false;
};

} // namespace dir2b

#endif // DIR2B_TIMED_DIR_CTRL_BASE_HH
