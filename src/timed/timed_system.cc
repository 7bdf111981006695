#include "timed/timed_system.hh"

#include "sim/stats.hh"

#include "timed/dir_ctrl.hh"
#include "timed/timed_audit.hh"
#include "timed/fm_cache_ctrl.hh"
#include "timed/fm_dir_ctrl.hh"
#include "timed/yf_cache_ctrl.hh"
#include "timed/yf_dir_ctrl.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace dir2b
{

TimedSystem::TimedSystem(const TimedConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numProcs == 0 || cfg_.numModules == 0)
        DIR2B_FATAL("timed system needs processors and modules");

    const unsigned endpoints = cfg_.numProcs + cfg_.numModules;
    net_ = std::make_unique<TimedNetwork>(eq_, endpoints,
                                          cfg_.netLatency,
                                          cfg_.network, cfg_.tracer);

    caches_.reserve(cfg_.numProcs);
    CompletionSink &sink = *this;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        switch (cfg_.protocol) {
          case TimedProto::FullMap:
            caches_.push_back(std::make_unique<FmCacheCtrl>(
                p, cfg_, eq_, *net_, sink));
            break;
          case TimedProto::YenFu:
            caches_.push_back(std::make_unique<YfCacheCtrl>(
                p, cfg_, eq_, *net_, sink));
            break;
          case TimedProto::TwoBit:
            caches_.push_back(std::make_unique<TwoBitCacheCtrl>(
                p, cfg_, eq_, *net_, sink));
            break;
        }
        TwoBitCacheCtrl *cc = caches_.back().get();
        net_->connect(p, [cc](unsigned src, const Message &m) {
            cc->receive(src, m);
        });
    }

    dirs_.reserve(cfg_.numModules);
    for (ModuleId m = 0; m < cfg_.numModules; ++m) {
        switch (cfg_.protocol) {
          case TimedProto::FullMap:
            dirs_.push_back(std::make_unique<FmDirCtrl>(
                m, cfg_, eq_, *net_));
            break;
          case TimedProto::YenFu:
            dirs_.push_back(std::make_unique<YfDirCtrl>(
                m, cfg_, eq_, *net_));
            break;
          case TimedProto::TwoBit:
            dirs_.push_back(std::make_unique<TwoBitDirCtrl>(
                m, cfg_, eq_, *net_));
            break;
        }
        TimedDirCtrl *dc = dirs_.back().get();
        net_->connect(cfg_.numProcs + m,
                      [dc](unsigned src, const Message &msg) {
                          dc->receive(src, msg);
                      });
    }
}

TimedSystem::~TimedSystem() = default;

void
TimedSystem::issueNext(ProcId p)
{
    if (remaining_[p] == 0)
        return;
    auto ref = source_(p);
    if (!ref)
        return;
    DIR2B_ASSERT(ref->proc == p, "source produced reference for ",
                 ref->proc, " when asked for ", p);
    --remaining_[p];

    const Value wval = ref->write ? oracle_.freshValue() : 0;
    caches_[p]->processorRequest(*ref, wval);
}

void
TimedSystem::onComplete(const MemRef &ref, Value v)
{
    if (ref.write)
        oracle_.onWriteComplete(ref.proc, ref.addr, v);
    else
        oracle_.onReadComplete(ref.proc, ref.addr, v);
    ++completed_;
    const ProcId p = ref.proc;
    eq_.schedule(cfg_.thinkTime, [this, p] { issueNext(p); });
}

TimedRunResult
TimedSystem::run(const ProcSource &source, std::uint64_t refsPerProc)
{
    source_ = source;
    remaining_.assign(cfg_.numProcs, refsPerProc);

    TelemetrySampler *sampler = cfg_.sampler;
    if (sampler) {
        telemetryView_.caches = &caches_;
        telemetryView_.dirs = &dirs_;
        telemetryView_.queues = {&eq_};
        telemetryView_.nets = {net_.get()};
        telemetryView_.contention = net_.get();
        telemetryView_.completed = {&completed_};
        registerTimedMetrics(sampler->registry(), telemetryView_);
    }

    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        // Stagger the first issues by one tick to avoid an artificial
        // fully-synchronous start (the §3.2.5 races still occur).
        eq_.scheduleAt(p % 3, [this, p] { issueNext(p); });
    }

    if (!sampler) {
        if (!eq_.run(cfg_.maxEvents)) {
            DIR2B_FATAL("timed run exceeded ", cfg_.maxEvents,
                        " events: protocol livelock? (",
                        completed_, " refs completed)");
        }
    } else {
        // Boundary-clamped chunks: before executing anything at or
        // past tick `next`, every sampling boundary <= next is exact
        // (all events below it executed, none at or above), so flush
        // them; then run the kernel up to the next boundary at most.
        std::uint64_t budget = cfg_.maxEvents;
        for (;;) {
            const Tick next = eq_.nextTickExact();
            if (next == maxTick)
                break;
            sampler->flushUpTo(next);
            if (!eq_.runUntil(sampler->nextBoundary(), budget)) {
                DIR2B_FATAL("timed run exceeded ", cfg_.maxEvents,
                            " events: protocol livelock? (",
                            completed_, " refs completed)");
            }
        }
    }

    for (ModuleId m = 0; m < cfg_.numModules; ++m) {
        DIR2B_ASSERT(dirs_[m]->quiesced(), "controller ", m,
                     " did not quiesce: ", dirs_[m]->stuckReport());
    }
    auditTimedFinalState(caches_, dirs_, oracle_);

    if (sampler)
        sampler->finish(eq_.now());

    return aggregateTimedResult(caches_, dirs_, oracle_, eq_.now(),
                                completed_, eq_.executed(),
                                net_->messagesSent(),
                                net_->broadcastsSent(),
                                net_->portWaitCycles());
}

void
TimedSystem::dumpStats(std::ostream &os) const
{
    dumpTimedStats(os, caches_, dirs_);
}

} // namespace dir2b
