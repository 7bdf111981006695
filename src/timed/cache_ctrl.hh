/**
 * @file
 * Timed cache controller, shared by every timed scheme.
 *
 * One controller per processor-cache pair (C_k).  The cache is
 * blocking (one outstanding processor request — the 1984 design
 * point), but it must service incoming coherence commands at any
 * time, including *while waiting for its own transaction* — that
 * concurrency is where the paper's synchronization scenario (§3.2.5)
 * lives:
 *
 *   "Upon receipt of BROADINV(i,a), cache j should invalidate its
 *    copy of a and in effect treat BROADINV as an MGRANTED(j,false).
 *    Processor j's next action will therefore be a
 *    REQUEST(j,a,'write')."
 *
 * which is exactly what convertToWriteMiss() implements.
 *
 * The full map's directed commands have the same cache-side meaning
 * as the two-bit broadcasts: an INVALIDATE(a,i) is handled as a
 * BROADINV that happens to be addressed precisely (conversion rule
 * included), and a PURGE(a,i,rw) as a BROADQUERY.  A spurious directed
 * command (a stale presence bit at the controller) finds no copy and
 * is a harmless acknowledged no-op.  Yen-Fu's differences live in
 * YfCacheCtrl.
 */

#ifndef DIR2B_TIMED_CACHE_CTRL_HH
#define DIR2B_TIMED_CACHE_CTRL_HH

#include <functional>
#include <optional>

#include "cache/cache_bank.hh"
#include "obs/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "timed/timed_config.hh"
#include "timed/timed_net.hh"
#include "trace/reference.hh"

namespace dir2b
{

/**
 * The CacheCtrlStats field lists: counters (member, kind, description)
 * and histograms (member, bucket width, buckets, description).  The
 * stats dump and the timed series walk them; adding a counter is one
 * line here.
 */
#define DIR2B_CACHE_CTRL_COUNTERS(X)                                        \
    X(readHits, Counter, "reads that hit")                                  \
    X(writeHits, Counter, "writes that hit")                                \
    X(readMisses, Counter, "reads that missed")                             \
    X(writeMisses, Counter, "writes that missed")                           \
    X(mrequests, Counter, "MREQUESTs sent for write hits on clean lines")   \
    X(mrequestConversions, Counter, "BROADINV treated as MGRANTED(false)")  \
    X(staleGrantsIgnored, Counter, "MGRANTEDs for converted requests")      \
    X(invalidationsApplied, Counter, "copies invalidated by commands")      \
    X(queriesAnswered, Counter, "queries answered with a put")             \
    X(writebacksSent, Counter, "dirty victims ejected with data")           \
    X(stolenCycles, Counter, "cache cycles taken by remote commands")       \
    X(filteredCmds, Counter, "absorbed by the duplicate directory")

#define DIR2B_CACHE_CTRL_HISTOGRAMS(X)                                      \
    X(latency, 1, 64, "request latency, cycles")                            \
    X(grantWait, 2, 64, "MREQUEST to grant/conversion, cycles")             \
    X(dataWait, 2, 64, "REQUEST to data arrival, cycles")

/** Per-cache statistics of the timed tier. */
struct CacheCtrlStats
{
#define X(m, kind, desc) Counter m;
    DIR2B_CACHE_CTRL_COUNTERS(X)
#undef X
#define X(m, width, buckets, desc) Histogram m{width, buckets};
    DIR2B_CACHE_CTRL_HISTOGRAMS(X)
#undef X
};

/** The CacheCtrlStats field lists as data. */
inline constexpr StatField<CacheCtrlStats, Counter> cacheCtrlCounters[] = {
#define X(m, kind, desc) {&CacheCtrlStats::m, #m, desc, MetricKind::kind},
    DIR2B_CACHE_CTRL_COUNTERS(X)
#undef X
};
inline constexpr StatField<CacheCtrlStats, Histogram>
    cacheCtrlHistograms[] = {
#define X(m, width, buckets, desc) {&CacheCtrlStats::m, #m, desc},
        DIR2B_CACHE_CTRL_HISTOGRAMS(X)
#undef X
};

/**
 * Receiver of processor-visible completions: the system that owns the
 * controllers (it checks the value and issues the next reference).
 * One fixed hook instead of a callable per transaction keeps the
 * per-reference path free of heap allocation.
 */
class CompletionSink
{
  public:
    /** ref completed with value v (the stored value for a write). */
    virtual void onComplete(const MemRef &ref, Value v) = 0;

  protected:
    ~CompletionSink() = default;
};

/** Timed cache controller. */
class TimedCacheCtrl
{
  public:
    TimedCacheCtrl(ProcId id, const TimedConfig &cfg, EventQueue &eq,
                   TimedNetwork &net, CompletionSink &sink,
                   CacheBank &bank);

    /**
     * Begin one LOAD/STORE.  Exactly one may be outstanding; the sink
     * hears of it with the read (or stored) value when the
     * transaction completes.
     */
    void processorRequest(const MemRef &ref, Value wval);

    virtual ~TimedCacheCtrl() = default;

    /** Incoming network message (connected by the system builder). */
    virtual void receive(unsigned src, const Message &msg);

    /** All a coherence command for a block this cache lacks does,
     *  besides an invalidation's INVACK: with the duplicate directory
     *  (§4.4 a) it is filtered, else it steals a cycle. */
    void chargeAbsent(const Message &msg);

    bool idle() const { return !txn_.has_value(); }

    const CacheCtrlStats &stats() const { return stats_; }
    const CacheArray &cache() const { return bank_.array(id_); }

    /** Drain hook for final conservation checks. */
    void forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const
    {
        bank_.forEachValid(id_, fn);
    }

  protected:
    /** Completing: the outcome is decided and the completion callback
     *  is scheduled; incoming commands must no longer convert or
     *  re-answer this transaction. */
    enum class Phase { AwaitGrant, AwaitData, Completing };

    struct Txn
    {
        Phase phase;
        MemRef ref;
        Value wval;
        Tick start;
        /** Trace span label for the whole transaction (literal). */
        const char *op = nullptr;
        /** Start of the current wait sub-phase (grant/data). */
        Tick phaseStart = 0;
    };

    unsigned homeEndpoint(Addr a) const;
    void sendToHome(Addr a, Message msg);
    void complete(Value v);
    void startMiss();
    void convertToWriteMiss();

    /**
     * Protocol hook: attempt a write hit on a clean line without any
     * global transaction.  The Yen-Fu controller upgrades Exclusive
     * lines silently here; the base schemes always go to MREQUEST.
     * @return true if the write completed locally.
     */
    virtual bool tryLocalWrite(CacheLine *, Value) { return false; }

    /** Protocol hook: local state for a read-miss fill (Yen-Fu fills
     *  Exclusive when the controller grants sole ownership). */
    virtual LineState
    readFillState(const Message &) const
    {
        return LineState::Shared;
    }

    void sendInvAck(Addr a);
    void onGetData(const Message &msg);
    void onMGranted(const Message &msg);
    /** BROADINV or INVALIDATE. */
    void onInvalidate(const Message &msg);
    /** BROADQUERY or PURGE. */
    void onQuery(const Message &msg);

    /** Invalidate block a.  Only a conversion may drop the block of
     *  a pending upgrade: TimedSystem relies on AwaitGrant => holder. */
    void dropLine(Addr a, bool converting = false);

    ProcId id_;
    const TimedConfig &cfg_;
    EventQueue &eq_;
    TimedNetwork &net_;
    CompletionSink &sink_;
    CacheBank &bank_;
    std::optional<Txn> txn_;
    CacheCtrlStats stats_;
    TraceRecorder *trc_ = nullptr;
    std::uint32_t trk_ = 0; ///< this cache's trace track
};

} // namespace dir2b

#endif // DIR2B_TIMED_CACHE_CTRL_HH
