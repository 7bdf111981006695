/**
 * @file
 * Tests for the timed (discrete-event) tier: basic round trips, the
 * §3.2.5 synchronization scenario (E8), the eviction/query race, and
 * randomized coherence runs over both controller designs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "timed/timed_oracle.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"

namespace dir2b
{
namespace
{

/** Scripted per-processor reference source. */
class Script
{
  public:
    explicit Script(std::vector<std::vector<MemRef>> perProc)
        : perProc_(std::move(perProc))
    {}

    ProcSource
    source()
    {
        return [this](ProcId p) -> std::optional<MemRef> {
            auto &q = perProc_.at(p);
            if (pos_.size() <= p)
                pos_.resize(p + 1, 0);
            if (pos_[p] >= q.size())
                return std::nullopt;
            return q[pos_[p]++];
        };
    }

  private:
    std::vector<std::vector<MemRef>> perProc_;
    std::vector<std::size_t> pos_;
};

TimedConfig
config(ProcId n = 4, std::size_t sets = 16, std::size_t ways = 2)
{
    TimedConfig cfg;
    cfg.numProcs = n;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = sets;
    cfg.cacheGeom.ways = ways;
    return cfg;
}

TEST(TimedSystem, SingleProcessorReadWriteRoundTrip)
{
    TimedConfig cfg = config(1);
    TimedSystem sys(cfg);
    Script script({{
        {0, 100, false},
        {0, 100, true},
        {0, 100, false},
        {0, 200, false},
    }});
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 4u);
    EXPECT_EQ(r.readsChecked, 3u);
    EXPECT_EQ(r.writesRecorded, 1u);
    EXPECT_GT(r.finalTick, 0u);
}

TEST(TimedSystem, LatencyOrderingHitVsMiss)
{
    // A hit costs ~cacheLatency; a miss costs at least two network
    // crossings plus the memory access.
    TimedConfig cfg = config(1);
    TimedSystem sys(cfg);
    Script script({{{0, 100, false}, {0, 100, false}}});
    sys.run(script.source(), 100);
    const auto &h = sys.cacheCtrl(0).stats().latency;
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_GE(h.max(), 2 * cfg.netLatency + cfg.memLatency);
    EXPECT_LE(h.min(), cfg.cacheLatency + 1);
}

TEST(TimedSystem, ModifiedDataFlowsBetweenCaches)
{
    TimedConfig cfg = config(2);
    TimedSystem sys(cfg);
    // P0 writes block 5; P1 then reads it (PresentM -> BROADQUERY).
    Script script({
        {{0, 5, true}},
        {{1, 5, false}, {1, 5, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 3u);
    // The read must have triggered an owner query unless the write
    // had not completed yet; either way the oracle verified values.
    EXPECT_EQ(r.readsChecked, 2u);
}

TEST(TimedSystem, Mrequest351ScenarioWithQueueDeletion)
{
    // The §3.2.5 example, engineered so both MREQUESTs are queued
    // when the first is processed:
    //   - caches 0 and 1 both load block a (clean copies);
    //   - cache 2 occupies the (serial) controller with a miss to
    //     another block of the same module;
    //   - caches 0 and 1 then store to a back-to-back.
    // Expected: the controller grants one MREQUEST, deletes the other
    // from its queue while broadcasting BROADINV, and the losing cache
    // treats the BROADINV as MGRANTED(false), converting to a write
    // miss.
    TimedConfig cfg = config(3, 16, 2);
    cfg.numModules = 1;
    cfg.dirLatency = 8; // wide window so the second MREQUEST queues
    cfg.thinkTime = 1;
    TimedSystem sys(cfg);

    const Addr a = 7;
    const Addr b = 9; // same module (numModules == 1)
    Script script({
        {{0, a, false}, {0, a, true}},
        {{1, a, false}, {1, a, true}},
        {{2, b, false}, {2, b + 2, false}, {2, b + 4, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 7u);

    // Exactly one store won the MREQUEST; the other converted.
    EXPECT_EQ(r.mrequestConversions, 1u);
    EXPECT_EQ(r.mreqDeleted + r.grantsFalse, 1u);
    const auto &d = sys.dirCtrl(0).stats();
    EXPECT_EQ(d.grantsTrue.value(), 1u);
    EXPECT_GE(d.broadInvs.value(), 1u);
}

TEST(TimedSystem, EvictionRaceConsumesEjectAsPut)
{
    // Cache 0 dirties block a, then misses to a conflicting block so
    // the dirty line is ejected; cache 1 simultaneously read-misses a.
    // If the controller's BROADQUERY finds no owner, the in-flight
    // EJECT(write) must be consumed as the put() response.
    TimedConfig cfg = config(2, 1, 1); // 1-block caches: instant
                                       // conflict
    cfg.numModules = 1;
    TimedSystem sys(cfg);

    const Addr a = 4;
    const Addr conflict = 12; // same (only) set
    Script script({
        {{0, a, true}, {0, conflict, false}},
        {{1, a, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 3u);
    // Whichever interleaving occurred, the data arrived and values
    // checked out; at least one put path was exercised if the request
    // hit PresentM.
    const auto &d = sys.dirCtrl(0).stats();
    EXPECT_LE(d.putsConsumed.value() + d.putsAwaited.value(), 2u);
}

TEST(TimedSystem, SnoopFilterAbsorbsUselessBroadcasts)
{
    auto run = [](bool filter) {
        TimedConfig cfg = config(4);
        cfg.snoopFilter = filter;
        TimedSystem sys(cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.3;
        scfg.w = 0.5;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 16;
        scfg.hotBlocks = 8;
        scfg.seed = 5;
        SyntheticStream stream(scfg);
        auto src = [&stream](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        };
        return sys.run(src, 800);
    };
    const auto noFilter = run(false);
    const auto withFilter = run(true);
    EXPECT_GT(noFilter.stolenCycles, withFilter.stolenCycles);
    EXPECT_GT(withFilter.filteredCmds, 0u);
    // Network traffic is NOT reduced (the paper's point).
    EXPECT_EQ(noFilter.netMessages, withFilter.netMessages);
}

// The duplicate directory changes no timing, only where a command's
// cost lands: per cache, what it filters is exactly what stole a cycle
// without it and found no copy.  At 64 processors nearly every
// broadcast copy reaches a cache without the block.
TEST(TimedSystem, SnoopFilterSplitsEachCachesCommandsExactly)
{
    auto run = [](bool filter) {
        TimedConfig cfg = config(64);
        cfg.numModules = 4;
        cfg.network = NetKind::Crossbar;
        cfg.perBlockConcurrency = true;
        cfg.snoopFilter = filter;
        auto sys = std::make_unique<TimedSystem>(cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 64;
        scfg.q = 0.3;
        scfg.w = 0.5;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 16;
        scfg.hotBlocks = 8;
        scfg.seed = 5;
        SyntheticStream stream(scfg);
        sys->run(
            [&stream](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            100);
        return sys;
    };
    const auto plain = run(false);
    const auto filtered = run(true);
    std::uint64_t absorbed = 0;
    for (ProcId p = 0; p < 64; ++p) {
        const auto &a = plain->cacheCtrl(p).stats();
        const auto &b = filtered->cacheCtrl(p).stats();
        EXPECT_EQ(a.filteredCmds.value(), 0u);
        EXPECT_EQ(a.stolenCycles.value(),
                  b.stolenCycles.value() + b.filteredCmds.value())
            << "cache " << p;
        EXPECT_EQ(a.invalidationsApplied.value(),
                  b.invalidationsApplied.value());
        absorbed += b.filteredCmds.value();
    }
    EXPECT_GT(absorbed, 0u);
    EXPECT_EQ(plain->network().stats().messages.value(),
              filtered->network().stats().messages.value());
}

// gtest prints the parameter's bytes into each test's name, so every
// field is four or eight bytes wide and the struct has no padding:
// padding bytes are uninitialised and would change the names from
// build to build.
struct TimedParam
{
    TimedProto proto;
    std::uint32_t perBlock;
    std::uint32_t snoop;
    NetKind net;
    std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<TimedParam>);

class TimedProperty : public ::testing::TestWithParam<TimedParam>
{
};

TEST_P(TimedProperty, RandomTrafficStaysCoherent)
{
    const auto prm = GetParam();
    TimedConfig cfg = config(4, 8, 2);
    cfg.numModules = 3;
    cfg.protocol = prm.proto;
    cfg.perBlockConcurrency = prm.perBlock != 0;
    cfg.snoopFilter = prm.snoop != 0;
    cfg.network = prm.net;
    TimedSystem sys(cfg);

    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.15;
    scfg.w = 0.4;
    scfg.sharedBlocks = 12;
    scfg.privateBlocks = 24;
    scfg.hotBlocks = 8;
    scfg.seed = prm.seed;
    SyntheticStream stream(scfg);
    auto src = [&stream](ProcId p) -> std::optional<MemRef> {
        return stream.nextFor(p);
    };

    const auto r = sys.run(src, 2500);
    EXPECT_EQ(r.refsCompleted, 4u * 2500u);
    EXPECT_GT(r.readsChecked, 0u);
    EXPECT_GT(r.writesRecorded, 0u);
    // Races must actually have been exercised across the suite; here
    // just confirm the machinery is wired (non-negative by type,
    // reported for visibility).
    SUCCEED() << "conversions=" << r.mrequestConversions
              << " putsConsumed=" << r.putsConsumed
              << " putsAwaited=" << r.putsAwaited;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TimedProperty,
    ::testing::Values(
        TimedParam{TimedProto::TwoBit, false, false, NetKind::Ideal, 1},
        TimedParam{TimedProto::TwoBit, false, false, NetKind::Ideal, 2},
        TimedParam{TimedProto::TwoBit, true, false, NetKind::Ideal, 1},
        TimedParam{TimedProto::TwoBit, true, false, NetKind::Ideal, 2},
        TimedParam{TimedProto::TwoBit, false, true, NetKind::Ideal, 3},
        TimedParam{TimedProto::TwoBit, true, true, NetKind::Ideal, 3},
        TimedParam{TimedProto::TwoBit, true, false, NetKind::Crossbar,
                   4},
        TimedParam{TimedProto::TwoBit, false, false, NetKind::Crossbar,
                   4},
        TimedParam{TimedProto::TwoBit, true, false, NetKind::Bus, 6},
        TimedParam{TimedProto::TwoBit, false, false, NetKind::Bus, 6},
        TimedParam{TimedProto::FullMap, false, false, NetKind::Ideal,
                   1},
        TimedParam{TimedProto::FullMap, false, false, NetKind::Ideal,
                   2},
        TimedParam{TimedProto::FullMap, true, false, NetKind::Ideal, 1},
        TimedParam{TimedProto::FullMap, true, false, NetKind::Ideal, 2},
        TimedParam{TimedProto::FullMap, true, false, NetKind::Crossbar,
                   4},
        TimedParam{TimedProto::FullMap, true, false, NetKind::Bus, 6},
        TimedParam{TimedProto::FullMap, false, true, NetKind::Ideal,
                   5}),
    [](const ::testing::TestParamInfo<TimedParam> &info) {
        const auto &p = info.param;
        std::string name =
            p.proto == TimedProto::FullMap ? "fm_" : "twobit_";
        name += p.perBlock ? "perblock" : "serial";
        if (p.snoop)
            name += "_snoop";
        if (p.net == NetKind::Crossbar)
            name += "_xbar";
        else if (p.net == NetKind::Bus)
            name += "_bus";
        name += "_s" + std::to_string(p.seed);
        return name;
    });

TEST(TimedFullMap, DirectedCommandsOnly)
{
    TimedConfig cfg = config(4);
    cfg.protocol = TimedProto::FullMap;
    TimedSystem sys(cfg);
    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.3;
    scfg.w = 0.4;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 16;
    scfg.hotBlocks = 8;
    scfg.seed = 21;
    SyntheticStream stream(scfg);
    auto src = [&stream](ProcId p) -> std::optional<MemRef> {
        return stream.nextFor(p);
    };
    const auto r = sys.run(src, 1500);
    EXPECT_EQ(r.refsCompleted, 6000u);
    // No broadcast ever leaves a full-map controller.
    EXPECT_EQ(r.broadcasts, 0u);
    std::uint64_t directed = 0;
    std::uint64_t purges = 0;
    for (ModuleId m = 0; m < cfg.numModules; ++m) {
        directed += sys.dirCtrl(m).stats().directedInvs.value();
        purges += sys.dirCtrl(m).stats().purges.value();
    }
    EXPECT_GT(directed + purges, 0u);
}

TEST(TimedFullMap, LessTrafficThanTwoBitUnderSharing)
{
    auto run = [](TimedProto proto) {
        TimedConfig cfg = config(8);
        cfg.protocol = proto;
        TimedSystem sys(cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 8;
        scfg.q = 0.2;
        scfg.w = 0.4;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 16;
        scfg.hotBlocks = 8;
        scfg.seed = 22;
        SyntheticStream stream(scfg);
        auto src = [&stream](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        };
        return sys.run(src, 1500);
    };
    const auto tb = run(TimedProto::TwoBit);
    const auto fm = run(TimedProto::FullMap);
    // Identical workload: the broadcast scheme moves strictly more
    // messages and steals more cache cycles.
    EXPECT_GT(tb.netMessages, fm.netMessages);
    EXPECT_GT(tb.stolenCycles, fm.stolenCycles);
}

TEST(TimedSystem, StatsDumpCoversEveryComponent)
{
    TimedConfig cfg = config(3);
    TimedSystem sys(cfg);
    SyntheticConfig scfg;
    scfg.numProcs = 3;
    scfg.q = 0.2;
    scfg.w = 0.4;
    scfg.seed = 12;
    SyntheticStream stream(scfg);
    auto src = [&stream](ProcId p) -> std::optional<MemRef> {
        return stream.nextFor(p);
    };
    sys.run(src, 500);

    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    for (const char *want :
         {"cache0.read_hits", "cache1.stolen_cycles",
          "cache2.latency", "ctrl0.requests", "ctrl1.broad_invs",
          "ctrl0.queue_depth"}) {
        EXPECT_NE(out.find(want), std::string::npos) << want;
    }
}

// The dump walks the components' field lists: on every timed
// protocol each listed counter and histogram appears exactly once per
// component, under "group." plus its snake_case name, with the
// component's current value; histograms read "mean [min,max]".
TEST(TimedSystem, DumpListsEveryStatOncePerComponent)
{
    for (TimedProto proto : {TimedProto::TwoBit, TimedProto::FullMap,
                             TimedProto::YenFu}) {
        TimedConfig cfg = config(3);
        cfg.protocol = proto;
        TimedSystem sys(cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 3;
        scfg.q = 0.3;
        scfg.w = 0.4;
        scfg.seed = 5;
        SyntheticStream stream(scfg);
        sys.run(
            [&stream](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            400);

        std::ostringstream os;
        sys.dumpStats(os);
        std::map<std::string, std::string> values;
        std::istringstream in(os.str());
        std::size_t lines = 0;
        for (std::string line; std::getline(in, line); ++lines) {
            const std::size_t nameEnd = line.find(' ');
            const std::size_t descAt = line.find("  # ");
            ASSERT_NE(descAt, std::string::npos) << line;
            const std::string name = line.substr(0, nameEnd);
            std::string value = line.substr(nameEnd, descAt - nameEnd);
            value.erase(0, value.find_first_not_of(' '));
            EXPECT_TRUE(values.emplace(name, value).second)
                << "dumped twice: " << name;
        }

        auto counters = [&](const std::string &group, const auto &stats,
                            const auto &fields) {
            for (const auto &f : fields)
                EXPECT_EQ(values[statName(group, f.name)],
                          std::to_string((stats.*f.member).value()))
                    << statName(group, f.name);
        };
        auto histograms = [&](const std::string &group,
                              const auto &stats, const auto &fields) {
            for (const auto &f : fields) {
                const Histogram &h = stats.*f.member;
                std::ostringstream want;
                want << std::fixed << std::setprecision(2) << h.mean()
                     << " [" << h.min() << "," << h.max() << "]";
                EXPECT_EQ(values[statName(group, f.name)], want.str())
                    << statName(group, f.name);
            }
        };
        for (ProcId p = 0; p < 3; ++p) {
            const std::string g = "cache" + std::to_string(p);
            counters(g, sys.cacheCtrl(p).stats(), cacheCtrlCounters);
            histograms(g, sys.cacheCtrl(p).stats(), cacheCtrlHistograms);
        }
        for (ModuleId m = 0; m < 2; ++m) {
            const std::string g = "ctrl" + std::to_string(m);
            counters(g, sys.dirCtrl(m).stats(), dirCtrlCounters);
            histograms(g, sys.dirCtrl(m).stats(), dirCtrlHistograms);
        }
        counters("net", sys.network().stats(), netStatFields);
        EXPECT_EQ(lines, 3 * (std::size(cacheCtrlCounters) +
                              std::size(cacheCtrlHistograms)) +
                             2 * (std::size(dirCtrlCounters) +
                                  std::size(dirCtrlHistograms)) +
                             std::size(netStatFields));

        // The naming rule, spelled out once.
        EXPECT_NE(values["cache2.mrequest_conversions"], "");
        EXPECT_NE(values["ctrl1.puts_awaited"], "");
        EXPECT_NE(values["net.port_wait_cycles"], "");
        EXPECT_NE(values["net.messages"], "0");
    }
}

// Write values follow the oracle's minted-value contract: they come
// from freshValue(), never from literals.

TEST(TimedOracle, DetectsFabricatedValue)
{
    TimedOracle o;
    const Value v1 = o.freshValue();
    const Value v2 = o.freshValue();
    o.onWriteComplete(0, 10, v1);
    EXPECT_DEATH(o.onReadComplete(1, 10, v2), "never written");
}

TEST(TimedOracle, DetectsBackwardsTimeTravel)
{
    TimedOracle o;
    const Value v1 = o.freshValue();
    const Value v2 = o.freshValue();
    o.onWriteComplete(0, 10, v1);
    o.onWriteComplete(0, 10, v2);
    o.onReadComplete(1, 10, v2);
    // Having seen version 2, processor 1 may not observe version 1.
    EXPECT_DEATH(o.onReadComplete(1, 10, v1), "coherence violation");
}

TEST(TimedOracle, AllowsStaleReadBeforeObservingNewWrite)
{
    // The ack-free window: a processor that has not yet seen the new
    // version may still legally read the old one.
    TimedOracle o;
    const Value v1 = o.freshValue();
    o.onReadComplete(1, 10, initialValue(10));
    o.onWriteComplete(0, 10, v1);
    o.onReadComplete(1, 10, initialValue(10)); // stale but legal
    o.onReadComplete(1, 10, v1);
}

TEST(TimedOracle, FinalCheckCatchesLostWrite)
{
    TimedOracle o;
    const Value v1 = o.freshValue();
    const Value v2 = o.freshValue();
    o.onWriteComplete(0, 10, v1);
    o.onWriteComplete(1, 10, v2);
    EXPECT_DEATH(o.checkFinal(10, v1), "conservation violation");
    o.checkFinal(10, v2);
}

TEST(TimedOracle, DetectsUnmintedWrite)
{
    TimedOracle o;
    o.onWriteComplete(0, 10, o.freshValue());
    EXPECT_DEATH(o.onWriteComplete(0, 10, 111), "never minted");
    // One past the minted range is as unminted as an arbitrary value.
    EXPECT_DEATH(o.onWriteComplete(0, 10, TimedOracle::encode(2)),
                 "never minted");
}

TEST(TimedOracle, DetectsCrossBlockLeakage)
{
    TimedOracle o;
    const Value v = o.freshValue();
    o.onWriteComplete(0, 10, v);
    o.onReadComplete(1, 10, v);
    EXPECT_DEATH(o.onReadComplete(1, 11, v), "never written to it");
}

TEST(TimedOracle, EncodeDecodeRoundTrip)
{
    for (std::uint64_t n : {1ULL, 2ULL, 12345ULL, 1ULL << 40})
        EXPECT_EQ(TimedOracle::decode(TimedOracle::encode(n)), n);
    TimedOracle o;
    EXPECT_EQ(o.freshValue(), TimedOracle::encode(1));
    EXPECT_EQ(o.freshValue(), TimedOracle::encode(2));
}

} // namespace
} // namespace dir2b
