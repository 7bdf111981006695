/**
 * @file
 * The timed multiprocessor of Figure 3-1, partitioned by directory
 * home into independently clocked shards (conservative parallel
 * discrete-event simulation).
 *
 * Shard s owns memory modules m with m % S == s and processors p with
 * p % S == s: exactly the paper's observation that controller K_j
 * owns its M_j slice of the global map, so all same-home directory
 * work is shard-local and only network messages cross shards.  Each
 * shard gets its own EventQueue timing wheel, its own controllers,
 * its own deferring network proxy (ShardNet) and optionally its own
 * TraceRecorder; shards advance concurrently between barriers.
 *
 * Lookahead.  Every message travels >= TimedConfig::netLatency ticks
 * (the Ideal/Crossbar/Bus models only ever ADD contention delay), so
 * with the global minimum next-event tick at T no send can be
 * delivered before T + netLatency: the epoch horizon.  Each epoch
 * every shard executes its events with when < horizon, deferring all
 * sends and oracle completions; the barrier then injects deliveries —
 * all at or beyond the horizon — and the loop repeats.
 *
 * Determinism (the headline property; tests/test_golden_digest pins
 * it): a sharded run is BIT-IDENTICAL to the serial run, at any shard
 * or worker count.  The serial engine fires same-tick events in
 * schedule order (a global sequence number); that order is an
 * emergent whole-history property, so instead of approximating it the
 * barrier REPLAYS it.  Every shard logs, per fired event, the calls
 * it made (EpochLog).  The barrier runs a single-threaded S-way merge
 * over these logs in (tick, key) order — which, inductively, IS the
 * serial execution order — and re-enacts each call exactly as the
 * serial engine would have:
 *
 *  - a schedule call draws the next key from the global counter and
 *    re-keys the child node in its shard's wheel (a no-op if the
 *    child already fired: relative order within a shard is serial
 *    order restricted to that shard, which needs no correction);
 *  - a network send draws the next key, claims capacity against a
 *    shared replay network in serial order (so crossbar port queues
 *    and bus occupancy resolve identically), and injects the delivery
 *    into the destination shard's wheel under that key;
 *  - an oracle completion is checked in serial completion order, so
 *    the per-location-SC monotonicity checks see the same sequence a
 *    serial run feeds them.
 *
 * The induction grounds in the initial per-processor kicks, which are
 * injected with the serial keys 0..P-1 before the first epoch.  Write
 * values come from per-shard disjoint nonce streams; values never
 * influence control flow, timing or digests (the oracle maps them to
 * version numbers), so this is digest-neutral.
 */

#ifndef DIR2B_TIMED_SHARDED_SYSTEM_HH
#define DIR2B_TIMED_SHARDED_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "timed/shard_net.hh"
#include "timed/timed_system.hh"

namespace dir2b
{

/** A sharded timed multiprocessor; drop-in for TimedSystem. */
class ShardedTimedSystem : private CompletionSink
{
  public:
    /**
     * @param cfg          same knobs as the serial TimedSystem
     * @param numShards    shard count (>= 1; may exceed the module
     *                     count, leaving some shards cache-only)
     * @param shardTracers optional per-shard recorders: shard s's
     *                     controllers and network record onto
     *                     shardTracers[s] (cfg.tracer is ignored)
     * @param workers      worker threads for the epoch loop
     *                     (0 = min(defaultThreadCount(), numShards))
     */
    ShardedTimedSystem(const TimedConfig &cfg, unsigned numShards,
                       std::vector<TraceRecorder *> shardTracers = {},
                       unsigned workers = 0);
    ~ShardedTimedSystem();

    ShardedTimedSystem(const ShardedTimedSystem &) = delete;
    ShardedTimedSystem &operator=(const ShardedTimedSystem &) = delete;

    /**
     * Run every processor against the source until streams end (or a
     * per-processor cap), exactly like TimedSystem::run.
     *
     * The source must tolerate concurrent calls for DISTINCT
     * processors (SyntheticStream::nextFor satisfies this); calls for
     * one processor are always serialised on its owning shard.
     */
    TimedRunResult run(const ProcSource &source,
                       std::uint64_t refsPerProc);

    const TwoBitCacheCtrl &cacheCtrl(ProcId p) const
    {
        return *caches_.at(p);
    }
    const TimedDirCtrl &dirCtrl(ModuleId m) const
    {
        return *dirs_.at(m);
    }
    const TimedConfig &config() const { return cfg_; }
    unsigned numShards() const { return numShards_; }

    /** Merge one per-cache histogram across every cache (all
     *  shards, in processor order — identical to the serial merge). */
    Histogram mergedCacheHistogram(Histogram CacheCtrlStats::*h) const;

    /** Merge one per-controller histogram across every module. */
    Histogram mergedDirHistogram(Histogram DirCtrlStats::*h) const;

    /** gem5-style statistics dump (same format as TimedSystem). */
    void dumpStats(std::ostream &os) const;

  private:
    struct Shard;

    unsigned shardOfProc(ProcId p) const { return p % numShards_; }
    unsigned shardOfModule(ModuleId m) const { return m % numShards_; }
    unsigned
    shardOfEndpoint(unsigned ep) const
    {
        return ep < cfg_.numProcs
                   ? shardOfProc(ep)
                   : shardOfModule(ep - cfg_.numProcs);
    }

    /** Per-shard disjoint unique write values (digest-neutral). */
    Value freshValue(Shard &sh);

    void issueNext(ProcId p);
    /** Log a completion for the barrier; schedule the next issue. */
    void onComplete(const MemRef &ref, Value v) override;

    /** The barrier: serial-order replay of one epoch's logs. */
    void mergeEpoch();

    TimedConfig cfg_;
    unsigned numShards_;
    unsigned workers_;

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Flat tables in proc/module order (owners vary by shard). */
    std::vector<std::unique_ptr<TwoBitCacheCtrl>> caches_;
    std::vector<std::unique_ptr<TimedDirCtrl>> dirs_;

    /** Shared contention state for the barrier's serial-order claim
     *  replay (its EventQueue never runs). */
    EventQueue replayEq_;
    std::unique_ptr<TimedNetwork> replayNet_;

    TimedOracle oracle_;
    ProcSource source_;
    std::vector<std::uint64_t> remaining_;

    /** The serial engine's schedule counter, re-enacted. */
    std::uint64_t nextKey_ = 0;
    /** Provisional-key base of the epoch being merged. */
    std::uint64_t epochKeyBase_ = 0;

    /** Merge scratch (reused across epochs). */
    std::vector<std::size_t> cursor_;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        resolved_;

    /** Per-shard next-event bounds of the current epoch (scratch). */
    std::vector<Tick> bounds_;
    /** Probe context for cfg_.sampler (lives as long as the run). */
    TimedTelemetryView telemetryView_;
    /** Quiescent-epoch fast-forward accounting (see TimedRunResult). */
    std::uint64_t epochs_ = 0;
    std::uint64_t inlineEpochs_ = 0;
    std::uint64_t shardEpochsSkipped_ = 0;
};

/**
 * Run a timed workload on the right engine for the shard count:
 * the serial TimedSystem when shards <= 1 (cfg.tracer honoured),
 * else a ShardedTimedSystem (per-shard tracers, workers as given).
 */
TimedRunResult runTimedWorkload(const TimedConfig &cfg, unsigned shards,
                                unsigned workers,
                                const ProcSource &source,
                                std::uint64_t refsPerProc);

} // namespace dir2b

#endif // DIR2B_TIMED_SHARDED_SYSTEM_HH
