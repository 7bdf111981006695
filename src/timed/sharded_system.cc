#include "timed/sharded_system.hh"

#include <algorithm>

#include "timed/dir_ctrl.hh"
#include "timed/fm_cache_ctrl.hh"
#include "timed/fm_dir_ctrl.hh"
#include "timed/timed_audit.hh"
#include "timed/yf_cache_ctrl.hh"
#include "timed/yf_dir_ctrl.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace dir2b
{

/** One home shard: a private wheel, config (its own tracer slot),
 *  deferring network, epoch log and side-effect table. */
struct ShardedTimedSystem::Shard
{
    unsigned index = 0;
    EventQueue eq;
    TimedConfig cfg;
    std::vector<ShardExternal> externals;
    std::unique_ptr<ShardNet> net;
    EpochLog log;
    std::uint64_t valueNonce = 0;
    /** The last nonce freshValue() drew on this shard (0 = none). */
    std::uint64_t lastNonce = 0;
    std::uint64_t completed = 0;
    bool budgetBlown = false;
};

ShardedTimedSystem::ShardedTimedSystem(
    const TimedConfig &cfg, unsigned numShards,
    std::vector<TraceRecorder *> shardTracers, unsigned workers)
    : cfg_(cfg), numShards_(numShards ? numShards : 1)
{
    if (cfg_.numProcs == 0 || cfg_.numModules == 0)
        DIR2B_FATAL("timed system needs processors and modules");

    workers_ = std::min<unsigned>(
        workers ? workers : defaultThreadCount(), numShards_);
    if (workers_ < 1)
        workers_ = 1;

    const unsigned endpoints = cfg_.numProcs + cfg_.numModules;
    shards_.reserve(numShards_);
    for (unsigned s = 0; s < numShards_; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->index = s;
        sh->cfg = cfg_;
        sh->cfg.tracer =
            s < shardTracers.size() ? shardTracers[s] : nullptr;
        sh->net = std::make_unique<ShardNet>(
            sh->eq, endpoints, cfg_.netLatency, cfg_.network,
            sh->cfg.tracer, sh->externals);
        shards_.push_back(std::move(sh));
    }

    caches_.reserve(cfg_.numProcs);
    CompletionSink &sink = *this;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        Shard &sh = *shards_[shardOfProc(p)];
        switch (cfg_.protocol) {
          case TimedProto::FullMap:
            caches_.push_back(std::make_unique<FmCacheCtrl>(
                p, sh.cfg, sh.eq, *sh.net, sink));
            break;
          case TimedProto::YenFu:
            caches_.push_back(std::make_unique<YfCacheCtrl>(
                p, sh.cfg, sh.eq, *sh.net, sink));
            break;
          case TimedProto::TwoBit:
            caches_.push_back(std::make_unique<TwoBitCacheCtrl>(
                p, sh.cfg, sh.eq, *sh.net, sink));
            break;
        }
        TwoBitCacheCtrl *cc = caches_.back().get();
        sh.net->connect(p, [cc](unsigned src, const Message &m) {
            cc->receive(src, m);
        });
    }

    dirs_.reserve(cfg_.numModules);
    for (ModuleId m = 0; m < cfg_.numModules; ++m) {
        Shard &sh = *shards_[shardOfModule(m)];
        switch (cfg_.protocol) {
          case TimedProto::FullMap:
            dirs_.push_back(std::make_unique<FmDirCtrl>(
                m, sh.cfg, sh.eq, *sh.net));
            break;
          case TimedProto::YenFu:
            dirs_.push_back(std::make_unique<YfDirCtrl>(
                m, sh.cfg, sh.eq, *sh.net));
            break;
          case TimedProto::TwoBit:
            dirs_.push_back(std::make_unique<TwoBitDirCtrl>(
                m, sh.cfg, sh.eq, *sh.net));
            break;
        }
        TimedDirCtrl *dc = dirs_.back().get();
        sh.net->connect(cfg_.numProcs + m,
                        [dc](unsigned src, const Message &msg) {
                            dc->receive(src, msg);
                        });
    }

    replayNet_ = std::make_unique<TimedNetwork>(
        replayEq_, endpoints, cfg_.netLatency, cfg_.network, nullptr);
    cursor_.resize(numShards_);
    resolved_.resize(numShards_);
}

ShardedTimedSystem::~ShardedTimedSystem() = default;

Value
ShardedTimedSystem::freshValue(Shard &sh)
{
    // Disjoint per-shard nonce streams (shard s draws s+1, s+1+S,
    // s+1+2S, ...): unique across the run without synchronisation.
    // Values never steer control flow or statistics — the oracle maps
    // them to version numbers — so differing from the serial engine's
    // nonce order is digest-neutral.
    sh.lastNonce = sh.index + 1 + sh.valueNonce++ * numShards_;
    return TimedOracle::encode(sh.lastNonce);
}

void
ShardedTimedSystem::issueNext(ProcId p)
{
    if (remaining_[p] == 0)
        return;
    auto ref = source_(p);
    if (!ref)
        return;
    DIR2B_ASSERT(ref->proc == p, "source produced reference for ",
                 ref->proc, " when asked for ", p);
    --remaining_[p];

    Shard &sh = *shards_[shardOfProc(p)];
    const Value wval = ref->write ? freshValue(sh) : 0;
    caches_[p]->processorRequest(*ref, wval);
}

void
ShardedTimedSystem::onComplete(const MemRef &ref, Value v)
{
    // Oracle checks replay at the barrier in global completion order
    // (same-tick completions of one block on different shards would
    // otherwise race the version counter).
    const ProcId p = ref.proc;
    Shard &sh = *shards_[shardOfProc(p)];
    sh.eq.logExternalCall(static_cast<std::uint32_t>(sh.externals.size()));
    ShardExternal ex;
    ex.kind = ShardExternal::Kind::Completion;
    ex.proc = p;
    ex.addr = ref.addr;
    ex.value = v;
    ex.isWrite = ref.write;
    sh.externals.push_back(ex);
    ++sh.completed;
    sh.eq.schedule(cfg_.thinkTime, [this, p] { issueNext(p); });
}

TimedRunResult
ShardedTimedSystem::run(const ProcSource &source,
                        std::uint64_t refsPerProc)
{
    source_ = source;
    remaining_.assign(cfg_.numProcs, refsPerProc);

    TelemetrySampler *sampler = cfg_.sampler;
    if (sampler) {
        telemetryView_.caches = &caches_;
        telemetryView_.dirs = &dirs_;
        telemetryView_.queues.clear();
        telemetryView_.nets.clear();
        telemetryView_.completed.clear();
        for (const auto &shp : shards_) {
            telemetryView_.queues.push_back(&shp->eq);
            telemetryView_.nets.push_back(shp->net.get());
            telemetryView_.completed.push_back(&shp->completed);
        }
        telemetryView_.contention = replayNet_.get();
        registerTimedMetrics(sampler->registry(), telemetryView_);
    }

    // The induction base: the initial kicks carry the exact keys
    // (0..P-1) the serial engine's schedule loop assigns them.
    nextKey_ = 0;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        shards_[shardOfProc(p)]->eq.scheduleAtKeyed(
            p % 3, nextKey_++, [this, p] { issueNext(p); });
    }

    const Tick lookahead = cfg_.netLatency;
    DIR2B_ASSERT(lookahead >= 1,
                 "sharded run needs netLatency >= 1 for lookahead");

    const bool ff = cfg_.fastForward;
    bounds_.assign(numShards_, maxTick);

    ShardGang gang(workers_);
    for (;;) {
        // Quiescent-epoch fast-forward: the exact per-shard bounds
        // jump an idle gap in a single epoch, where the bucket-start
        // lower bounds would spend several refinement epochs (each a
        // full gang barrier executing nothing) discovering the same
        // gap.  Horizon safety is unchanged — every send from a tick
        // in [mn, horizon) still delivers at or beyond mn + lookahead.
        Tick mn = maxTick;
        for (unsigned s = 0; s < numShards_; ++s) {
            bounds_[s] = ff ? shards_[s]->eq.nextTickExact()
                            : shards_[s]->eq.nextTickLowerBound();
            mn = std::min(mn, bounds_[s]);
        }
        if (mn == maxTick)
            break; // every wheel drained and nothing in flight

        // Merge-replay barrier = sampling point.  Every event below
        // mn has executed and been merged (mn is the global minimum
        // pending tick), and nothing at or beyond the previous —
        // boundary-clamped — horizon has, so each boundary <= mn sees
        // exactly the serial engine's state.  Clamping the next
        // horizon to nextBoundary() keeps that invariant for the
        // following epoch; progress is preserved because after the
        // flush the next boundary lies strictly beyond mn.
        if (sampler)
            sampler->flushUpTo(mn);
        Tick horizon =
            mn > maxTick - lookahead ? maxTick : mn + lookahead;
        if (sampler)
            horizon = std::min(horizon, sampler->nextBoundary());

        unsigned active = 0;
        for (unsigned s = 0; s < numShards_; ++s)
            active += bounds_[s] < horizon;
        ++epochs_;
        shardEpochsSkipped_ += numShards_ - active;

        std::uint64_t executedSoFar = 0;
        for (const auto &shp : shards_)
            executedSoFar += shp->eq.executed();
        const std::uint64_t epochBudget =
            cfg_.maxEvents > executedSoFar
                ? cfg_.maxEvents - executedSoFar
                : 0;

        epochKeyBase_ = nextKey_;
        auto epochBody = [&](unsigned s) {
            Shard &sh = *shards_[s];
            sh.log.clear();
            sh.externals.clear();
            sh.budgetBlown = false;
            // An exact bound at or beyond the horizon proves the
            // shard executes nothing this epoch; skip its wheel walk.
            if (ff && bounds_[s] >= horizon)
                return;
            sh.eq.beginEpoch(&sh.log, epochKeyBase_);
            std::uint64_t budget = epochBudget;
            sh.budgetBlown = !sh.eq.runUntil(horizon, budget);
            sh.eq.endEpoch();
        };
        if (ff && active <= 1) {
            // One live shard: run it inline on this thread instead of
            // round-tripping through the worker gang — on sparse
            // long-horizon runs this is most epochs, and the handoff
            // is the dominant cost.
            ++inlineEpochs_;
            for (unsigned s = 0; s < numShards_; ++s)
                epochBody(s);
        } else {
            gang.run(numShards_, epochBody);
        }

        bool blown = false;
        std::uint64_t executedNow = 0;
        std::uint64_t completedNow = 0;
        for (const auto &shp : shards_) {
            blown = blown || shp->budgetBlown;
            executedNow += shp->eq.executed();
            completedNow += shp->completed;
        }
        if (blown || executedNow > cfg_.maxEvents) {
            DIR2B_FATAL("timed run exceeded ", cfg_.maxEvents,
                        " events: protocol livelock? (", completedNow,
                        " refs completed)");
        }

        mergeEpoch();
    }

    for (ModuleId m = 0; m < cfg_.numModules; ++m) {
        DIR2B_ASSERT(dirs_[m]->quiesced(), "controller ", m,
                     " did not quiesce: ", dirs_[m]->stuckReport());
    }
    auditTimedFinalState(caches_, dirs_, oracle_);

    Tick finalTick = 0;
    std::uint64_t events = 0;
    std::uint64_t completed = 0;
    std::uint64_t messages = 0;
    std::uint64_t broadcasts = 0;
    for (const auto &shp : shards_) {
        finalTick = std::max(finalTick, shp->eq.now());
        events += shp->eq.executed();
        completed += shp->completed;
        messages += shp->net->messagesSent();
        broadcasts += shp->net->broadcastsSent();
    }
    if (sampler)
        sampler->finish(finalTick);

    TimedRunResult r = aggregateTimedResult(
        caches_, dirs_, oracle_, finalTick, completed, events,
        messages, broadcasts, replayNet_->portWaitCycles());
    r.epochs = epochs_;
    r.inlineEpochs = inlineEpochs_;
    r.shardEpochsSkipped = shardEpochsSkipped_;
    return r;
}

void
ShardedTimedSystem::mergeEpoch()
{
    // The shards minted outside the oracle; admit what they drew
    // before replaying the epoch's write completions.
    for (const auto &shp : shards_)
        oracle_.noteMinted(shp->lastNonce);

    std::fill(cursor_.begin(), cursor_.end(), std::size_t{0});
    for (auto &m : resolved_)
        m.clear();

    // S-way merge in (tick, final key) order — inductively, the
    // serial execution order.  A provisional head's final key is
    // always already resolved: its creating event lives earlier in
    // the same shard's log.
    for (;;) {
        unsigned best = numShards_;
        Tick bestTick = 0;
        std::uint64_t bestKey = 0;
        for (unsigned s = 0; s < numShards_; ++s) {
            const auto &execs = shards_[s]->log.execs;
            if (cursor_[s] >= execs.size())
                continue;
            const EpochLog::Exec &e = execs[cursor_[s]];
            std::uint64_t k = e.key;
            if (k >= epochKeyBase_) {
                const auto it = resolved_[s].find(e.id);
                DIR2B_ASSERT(it != resolved_[s].end(),
                             "in-epoch event fired before its "
                             "creating call was merged");
                k = it->second;
            }
            if (best == numShards_ || e.tick < bestTick ||
                (e.tick == bestTick && k < bestKey)) {
                best = s;
                bestTick = e.tick;
                bestKey = k;
            }
        }
        if (best == numShards_)
            break;

        Shard &sh = *shards_[best];
        const EpochLog::Exec &e = sh.log.execs[cursor_[best]];
        for (std::uint32_t ci = 0; ci < e.numCalls; ++ci) {
            const EpochLog::Call &c = sh.log.calls[e.firstCall + ci];
            if (c.kind == EpochLog::CallKind::Schedule) {
                // Re-enact the serial schedule call: draw the key the
                // serial engine would have handed out and re-key the
                // child (a no-op when the child already fired — its
                // shard-local order was already serial-consistent).
                const std::uint64_t key = nextKey_++;
                resolved_[best].emplace(c.childId, key);
                sh.eq.rewriteKey(c.nodeIdx, c.childId, key);
                continue;
            }
            ShardExternal &ex = sh.externals[c.aux];
            switch (ex.kind) {
              case ShardExternal::Kind::Send: {
                const std::uint64_t key = nextKey_++;
                const Tick at =
                    replayNet_->claimDeliveryAt(ex.dst, e.tick);
                Shard &dsh = *shards_[shardOfEndpoint(ex.dst)];
                TimedNetwork *dn = dsh.net.get();
                const unsigned src = ex.src;
                const unsigned dst = ex.dst;
                const Message msg = ex.msg;
                dsh.eq.scheduleAtKeyed(at, key,
                                       [dn, src, dst, msg] {
                                           dn->deliver(src, dst, msg);
                                       });
                break;
              }
              case ShardExternal::Kind::BusBroadcast: {
                // One bus transaction; every listener gets the same
                // slot, keys drawn in the serial fan-out order.
                const Tick at = replayNet_->claimDeliveryAt(0, e.tick);
                for (unsigned dst : ex.dsts) {
                    const std::uint64_t key = nextKey_++;
                    Shard &dsh = *shards_[shardOfEndpoint(dst)];
                    TimedNetwork *dn = dsh.net.get();
                    const unsigned src = ex.src;
                    const Message msg = ex.msg;
                    dsh.eq.scheduleAtKeyed(at, key,
                                           [dn, src, dst, msg] {
                                               dn->deliver(src, dst,
                                                           msg);
                                           });
                }
                break;
              }
              case ShardExternal::Kind::Completion:
                if (ex.isWrite)
                    oracle_.onWriteComplete(ex.proc, ex.addr,
                                            ex.value);
                else
                    oracle_.onReadComplete(ex.proc, ex.addr, ex.value);
                break;
            }
        }
        ++cursor_[best];
    }

    // Keys order the overflow heaps; restore their invariants after
    // the batch of rewrites.
    for (const auto &shp : shards_)
        shp->eq.rebuildOverflowHeap();
}

Histogram
ShardedTimedSystem::mergedCacheHistogram(
    Histogram CacheCtrlStats::*h) const
{
    return dir2b::mergedCacheHistogram(caches_, h);
}

Histogram
ShardedTimedSystem::mergedDirHistogram(Histogram DirCtrlStats::*h) const
{
    return dir2b::mergedDirHistogram(dirs_, h);
}

void
ShardedTimedSystem::dumpStats(std::ostream &os) const
{
    dumpTimedStats(os, caches_, dirs_);
}

TimedRunResult
runTimedWorkload(const TimedConfig &cfg, unsigned shards,
                 unsigned workers, const ProcSource &source,
                 std::uint64_t refsPerProc)
{
    if (shards <= 1) {
        TimedSystem sys(cfg);
        return sys.run(source, refsPerProc);
    }
    ShardedTimedSystem sys(cfg, shards, {}, workers);
    return sys.run(source, refsPerProc);
}

} // namespace dir2b
