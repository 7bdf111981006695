#include "timed/timed_system.hh"

#include <string>

#include "timed/dir_ctrl.hh"
#include "timed/fm_dir_ctrl.hh"
#include "timed/yf_cache_ctrl.hh"
#include "timed/yf_dir_ctrl.hh"
#include "obs/telemetry.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"

namespace dir2b
{

TimedSystem::TimedSystem(const TimedConfig &cfg)
    : cfg_(cfg), bank_(cfg.numProcs, cfg.cacheGeom,
                       cfg.protocol == TimedProto::TwoBit)
{
    if (cfg_.numProcs == 0 || cfg_.numModules == 0)
        DIR2B_FATAL("timed system needs processors and modules");

    const unsigned endpoints = cfg_.numProcs + cfg_.numModules;
    net_ = std::make_unique<TimedNetwork>(eq_, endpoints,
                                          cfg_.netLatency,
                                          cfg_.network, cfg_.tracer);
    holders_.resize((cfg_.numProcs + 63) / 64);
    net_->connectBroadcast(
        std::bind_front(&TimedSystem::deliverBroadcast, this));

    caches_.reserve(cfg_.numProcs);
    CompletionSink &sink = *this;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        if (cfg_.protocol == TimedProto::YenFu)
            caches_.push_back(std::make_unique<YfCacheCtrl>(
                p, cfg_, eq_, *net_, sink, bank_));
        else
            caches_.push_back(std::make_unique<TimedCacheCtrl>(
                p, cfg_, eq_, *net_, sink, bank_));
        TimedCacheCtrl *cc = caches_.back().get();
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
TimedSystem::deliverBroadcast(unsigned src, const Message &msg,
                              std::span<const unsigned> dsts, bool last)
{
    // A controller run here can drop only its own copy and fills
    // nothing, so the bitmap read once stays exact for every later
    // cache of the group.
    bank_.holderBitmap(msg.addr, holders_.data());
    const bool inv = msg.kind == MsgKind::BroadInv;
    Message ack;
    ack.kind = MsgKind::InvAck;
    ack.addr = msg.addr;
    unsigned counted = 0;
    for (std::size_t i = 0; i < dsts.size(); ++i) {
        const unsigned d = dsts[i];
        if ((holders_[d / 64] >> (d % 64) & 1) ||
            (last && i + 1 == dsts.size())) {
            caches_[d]->receive(src, msg);
            continue;
        }
        caches_[d]->chargeAbsent(msg);
        if (inv) {
            ack.proc = d;
            net_->sendCounted(d, src, ack);
            ++counted;
        }
    }
    if (counted)
        dirs_[src - cfg_.numProcs]->takeCountedAcks(msg.addr, counted);
}

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
    if (sampler)
        registerMetrics(sampler->registry());

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
    auditFinalState();

    if (sampler)
        sampler->finish(eq_.now());

    return aggregateResult();
}

void
TimedSystem::auditFinalState() const
{
    // Gather the unique dirty copy (if any) per block; clean copies
    // must equal memory at quiesce (every downgrade wrote back).
    FlatMap<Addr, Value> dirty;
    FlatMap<Addr, unsigned> dirtyCount;

    auto memValue = [&](Addr a) {
        const auto m = static_cast<ModuleId>(a % dirs_.size());
        return dirs_[m]->memory().peek(a);
    };

    for (ProcId p = 0; p < static_cast<ProcId>(caches_.size());
         ++p) {
        caches_[p]->forEachValidLine([&](const CacheLine &l) {
            if (l.dirty()) {
                dirty[l.addr] = l.value;
                ++dirtyCount[l.addr];
            } else {
                DIR2B_ASSERT(l.value == memValue(l.addr),
                             "clean copy of block ", l.addr,
                             " in cache ", p,
                             " differs from memory at quiesce");
            }
        });
    }
    for (const auto &[a, n] : dirtyCount) {
        DIR2B_ASSERT(n == 1, "block ", a, " dirty in ", n,
                     " caches at quiesce");
    }

    // Every written block's end value (dirty copy, else memory) must
    // be the newest version the oracle recorded.
    oracle_.forEachWrittenBlock([&](Addr a) {
        const auto it = dirty.find(a);
        oracle_.checkFinal(a, it != dirty.end() ? it->second
                                                : memValue(a));
    });
}

TimedRunResult
TimedSystem::aggregateResult() const
{
    TimedRunResult r;
    r.finalTick = eq_.now();
    r.refsCompleted = completed_;
    r.eventsExecuted = eq_.executed();
    r.netMessages = net_->stats().messages.value();
    r.broadcasts = net_->stats().broadcasts.value();
    r.netWaitCycles = net_->stats().portWaitCycles.value();
    r.readsChecked = oracle_.readsChecked();
    r.writesRecorded = oracle_.writesRecorded();

    double latSum = 0.0;
    std::uint64_t latCount = 0;
    for (const auto &cc : caches_) {
        const auto &s = cc->stats();
        r.stolenCycles += s.stolenCycles.value();
        r.filteredCmds += s.filteredCmds.value();
        r.mrequestConversions += s.mrequestConversions.value();
        latSum += s.latency.mean() *
                  static_cast<double>(s.latency.samples());
        latCount += s.latency.samples();
    }
    r.avgLatency = latCount ? latSum / static_cast<double>(latCount)
                            : 0.0;
    for (const auto &dc : dirs_) {
        const auto &s = dc->stats();
        r.mreqDeleted += s.mreqDeleted.value();
        r.putsConsumed += s.putsConsumed.value();
        r.putsAwaited += s.putsAwaited.value();
        r.grantsFalse += s.grantsFalse.value();
    }
    r.dirStore = dirStoreCounters();
    const Histogram lat = mergedCacheHistogram(&CacheCtrlStats::latency);
    r.latencyP50 = lat.p50();
    r.latencyP95 = lat.p95();
    r.latencyP99 = lat.p99();
    return r;
}

DirStoreCounters
TimedSystem::dirStoreCounters() const
{
    DirStoreCounters c;
    for (const auto &d : dirs_)
        if (const TwoBitDirectory *tb = d->twoBitDir())
            c.add(*tb);
    return c;
}

void
TimedSystem::dumpStats(std::ostream &os) const
{
    for (std::size_t p = 0; p < caches_.size(); ++p) {
        const std::string g = "cache" + std::to_string(p);
        dumpFields(os, g, caches_[p]->stats(), cacheCtrlCounters);
        dumpFields(os, g, caches_[p]->stats(), cacheCtrlHistograms);
    }
    for (std::size_t m = 0; m < dirs_.size(); ++m) {
        const std::string g = "ctrl" + std::to_string(m);
        dumpFields(os, g, dirs_[m]->stats(), dirCtrlCounters);
        dumpFields(os, g, dirs_[m]->stats(), dirCtrlHistograms);
    }
    dumpFields(os, "net", net_->stats(), netStatFields);
}

namespace
{

const TimedSystem &
sys(const void *ctx)
{
    return *static_cast<const TimedSystem *>(ctx);
}

/** Field `f` of a counter list summed over components (anything
 *  whose elements point at an object with stats()). */
template <class Components, class Fields>
std::uint64_t
sumField(const Components &components, const Fields &fields,
         std::size_t f)
{
    std::uint64_t s = 0;
    for (const auto &c : components)
        s += (c->stats().*fields[f].member).value();
    return s;
}

} // namespace

void
TimedSystem::registerMetrics(MetricRegistry &reg) const
{
    const auto counter = MetricKind::Counter;
    const auto gauge = MetricKind::Gauge;

    // Progress: completed references (ProgressMeter reads this name).
    reg.add("refs.completed", counter,
            +[](const void *c, std::size_t) { return sys(c).completed_; },
            this);
    reg.add("kernel.executed", counter,
            +[](const void *c, std::size_t) {
                return sys(c).eq_.executed();
            },
            this);
    reg.add("kernel.pending", gauge,
            +[](const void *c, std::size_t) {
                return std::uint64_t{sys(c).eq_.pending()};
            },
            this);

    addStatFields(reg, "net", netStatFields,
                  +[](const void *c, std::size_t f) {
                      return (sys(c).net_->stats().*
                              netStatFields[f].member)
                          .value();
                  },
                  this);
    addStatFields(reg, "cache", cacheCtrlCounters,
                  +[](const void *c, std::size_t f) {
                      return sumField(sys(c).caches_, cacheCtrlCounters,
                                      f);
                  },
                  this);
    // dir.grants_false is the §4.2 useless-command numerator:
    // MGRANTED(false) round trips that did no sharing work.
    addStatFields(reg, "dir", dirCtrlCounters,
                  +[](const void *c, std::size_t f) {
                      return sumField(sys(c).dirs_, dirCtrlCounters, f);
                  },
                  this);
    reg.add("dir.queue_depth", gauge,
            +[](const void *c, std::size_t) {
                std::uint64_t s = 0;
                for (const auto &d : sys(c).dirs_)
                    s += d->queueDepth();
                return s;
            },
            this);
    addStatFields(reg, "dirstore", dirStoreFields,
                  &dirStoreField<TimedSystem>, this);
}

} // namespace dir2b
