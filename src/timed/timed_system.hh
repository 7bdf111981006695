/**
 * @file
 * The timed multiprocessor of Figure 3-1: n processor-cache pairs and
 * m controller-memory modules on an interconnection network, running
 * a timed coherence scheme (two-bit, full map or Yen-Fu) with real
 * latencies.
 *
 * Processors are blocking (one outstanding reference, thinkTime
 * between references) and draw their streams from a per-processor
 * source; the per-location coherence oracle checks every completion
 * and the end state.
 */

#ifndef DIR2B_TIMED_TIMED_SYSTEM_HH
#define DIR2B_TIMED_TIMED_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "cache/cache_bank.hh"
#include "core/two_bit_directory.hh"
#include "sim/event_queue.hh"
#include "timed/cache_ctrl.hh"
#include "timed/dir_ctrl_base.hh"
#include "timed/timed_config.hh"
#include "timed/timed_net.hh"
#include "timed/timed_oracle.hh"
#include "trace/reference.hh"

namespace dir2b
{

class MetricRegistry;

/**
 * Per-processor reference source: returns the next reference for
 * processor p, or nullopt when p's stream ends.  The MemRef::proc
 * field must equal p.
 */
using ProcSource = std::function<std::optional<MemRef>(ProcId)>;

/**
 * The TimedRunResult counter list: member, timed sweep-cell key,
 * description, in the key order of a timed cell.  Every member is a
 * std::uint64_t (Tick is one); TimedSystem::aggregateResult fills
 * them.
 */
#define DIR2B_TIMED_RESULT_COUNTERS(X)                                      \
    X(finalTick, cycles, "simulated cycles to the last completion")         \
    X(refsCompleted, refs, "references completed")                          \
    X(netMessages, messages, "point-to-point deliveries")                   \
    X(broadcasts, broadcasts, "broadcast operations")                       \
    X(netWaitCycles, netWaitCycles, "cycles queued for a port or the bus")  \
    X(stolenCycles, stolenCycles, "cache cycles taken by remote commands")  \
    X(filteredCmds, filteredCmds, "absorbed by the duplicate directory")    \
    X(mrequestConversions, mreqConversions,                                 \
      "BROADINV treated as MGRANTED(false)")                                \
    X(mreqDeleted, mreqDeleted, "stale MREQUESTs deleted from the queue")   \
    X(putsConsumed, putsConsumed, "queued EJECT(write) used as put()")      \
    X(putsAwaited, putsAwaited, "queries resolved by a later put")          \
    X(grantsFalse, grantsFalse, "MGRANTED(false) replies")                  \
    X(eventsExecuted, eventsExecuted, "kernel events executed")             \
    X(readsChecked, readsChecked, "reads the oracle verified")              \
    X(writesRecorded, writesRecorded, "writes the oracle recorded")

/** Aggregate results of a timed run. */
struct TimedRunResult
{
#define X(m, key, desc) std::uint64_t m = 0;
    DIR2B_TIMED_RESULT_COUNTERS(X)
#undef X
    /** Mean request latency over all caches. */
    double avgLatency = 0.0;
    /** Request-latency percentiles over all caches (merged). */
    Tick latencyP50 = 0;
    Tick latencyP95 = 0;
    Tick latencyP99 = 0;
    /** Tiered directory-storage counters (two-bit scheme; zeros for
     *  schemes whose directory is not the tiered 2-bit map). */
    DirStoreCounters dirStore;
};

/** The TimedRunResult counter list as data; `name` is the cell key. */
inline constexpr StatField<TimedRunResult, std::uint64_t>
    timedResultFields[] = {
#define X(m, key, desc) {&TimedRunResult::m, #key, desc},
        DIR2B_TIMED_RESULT_COUNTERS(X)
#undef X
};

/** A complete timed multiprocessor. */
class TimedSystem : private CompletionSink
{
  public:
    explicit TimedSystem(const TimedConfig &cfg);
    ~TimedSystem();

    TimedSystem(const TimedSystem &) = delete;
    TimedSystem &operator=(const TimedSystem &) = delete;

    /**
     * Run every processor against the source until streams end (or a
     * per-processor cap).  Panics on any coherence violation; fatal
     * on livelock (event budget exhausted).
     */
    TimedRunResult run(const ProcSource &source,
                       std::uint64_t refsPerProc);

    const TimedCacheCtrl &cacheCtrl(ProcId p) const
    {
        return *caches_.at(p);
    }
    const TimedDirCtrl &dirCtrl(ModuleId m) const
    {
        return *dirs_.at(m);
    }
    const TimedNetwork &network() const { return *net_; }
    const EventQueue &queue() const { return eq_; }
    const TimedConfig &config() const { return cfg_; }

    /** Current simulated time (the trace/debug hook's clock). */
    Tick now() const { return eq_.now(); }

    /** Merge one per-cache histogram across every cache. */
    Histogram
    mergedCacheHistogram(Histogram CacheCtrlStats::*h) const
    {
        Histogram out = caches_.at(0)->stats().*h;
        for (std::size_t p = 1; p < caches_.size(); ++p)
            out.merge(caches_[p]->stats().*h);
        return out;
    }

    /** Merge one per-controller histogram across every module. */
    Histogram
    mergedDirHistogram(Histogram DirCtrlStats::*h) const
    {
        Histogram out = dirs_.at(0)->stats().*h;
        for (std::size_t m = 1; m < dirs_.size(); ++m)
            out.merge(dirs_[m]->stats().*h);
        return out;
    }

    /** Tiered directory-storage counters summed over the
     *  controllers (zeros for schemes without the tiered 2-bit map). */
    DirStoreCounters dirStoreCounters() const;

    /**
     * Dump every component's statistics in the gem5-style
     * "group.stat value # description" format: caches (cacheP),
     * controllers (ctrlM) and the network (net), one line per entry
     * of their field lists.
     */
    void dumpStats(std::ostream &os) const;

  private:
    /**
     * Deliver one tick's copies of a broadcast.  Holders run their
     * controller.  For any other cache a copy only costs a cycle, and
     * a BROADINV's INVACK is counted, not delivered, except for the
     * broadcast's final copy, whose INVACK closes the ack barrier.
     */
    void deliverBroadcast(unsigned src, const Message &msg,
                          std::span<const unsigned> dsts, bool last);

    void issueNext(ProcId p);
    /** Check a completion against the oracle; schedule the next. */
    void onComplete(const MemRef &ref, Value v) override;

    /**
     * Final conservation pass at quiesce: at most one dirty copy per
     * block, clean copies equal memory, and every written block ends
     * at the newest version the oracle recorded.
     */
    void auditFinalState() const;

    /** Fold per-component statistics into a TimedRunResult. */
    TimedRunResult aggregateResult() const;

    /**
     * Register the timed metric set (docs/METRICS.md) for the
     * sampler: progress, the event kernel, then every network, cache
     * and controller counter (summed over components), the
     * controllers' queue depth and the directory-store counters.
     */
    void registerMetrics(MetricRegistry &reg) const;

    TimedConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<TimedNetwork> net_;
    CacheBank bank_;
    /** deliverBroadcast()'s copy of the block's holder bitmap. */
    std::vector<std::uint64_t> holders_;
    std::vector<std::unique_ptr<TimedCacheCtrl>> caches_;
    std::vector<std::unique_ptr<TimedDirCtrl>> dirs_;
    TimedOracle oracle_;
    ProcSource source_;
    std::vector<std::uint64_t> remaining_;
    std::uint64_t completed_ = 0;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_SYSTEM_HH
