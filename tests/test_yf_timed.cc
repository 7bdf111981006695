/**
 * @file
 * Tests for the timed Yen-Fu tier: exclusive-clean fills, silent
 * upgrades, the purge-answers-clean-or-dirty rule, the clean-eject
 * race unique to this scheme, and randomized coherence sweeps — the
 * synchronization problems the paper says were "not fully resolved in
 * [10]", resolved and verified.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "timed/timed_system.hh"
#include "timed/yf_cache_ctrl.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

class Script
{
  public:
    explicit Script(std::vector<std::vector<MemRef>> perProc)
        : perProc_(std::move(perProc)), pos_(perProc_.size(), 0)
    {}

    ProcSource
    source()
    {
        return [this](ProcId p) -> std::optional<MemRef> {
            auto &q = perProc_.at(p);
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
config(ProcId n = 3, std::size_t sets = 16, std::size_t ways = 2)
{
    TimedConfig cfg;
    cfg.protocol = TimedProto::YenFu;
    cfg.numProcs = n;
    cfg.numModules = 1;
    cfg.cacheGeom.sets = sets;
    cfg.cacheGeom.ways = ways;
    return cfg;
}

const YfCacheCtrl &
yf(const TimedSystem &sys, ProcId p)
{
    return static_cast<const YfCacheCtrl &>(sys.cacheCtrl(p));
}

TEST(YfTimed, SilentUpgradeCostsNoMessages)
{
    TimedSystem sys(config(2));
    // P0: read (exclusive-clean fill), then write (silent upgrade).
    Script script({{{0, 5, false}, {0, 5, true}}, {}});
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 2u);
    EXPECT_EQ(yf(sys, 0).silentUpgrades(), 1u);
    EXPECT_EQ(sys.dirCtrl(0).stats().mrequests.value(), 0u);
    // Traffic: one REQUEST + one get and nothing else.
    EXPECT_EQ(r.netMessages, 2u);
}

TEST(YfTimed, SilentlyModifiedDataRecoveredByRemoteRead)
{
    TimedSystem sys(config(2));
    Script script({
        {{0, 5, false}, {0, 5, true}}, // exclusive, silent dirty
        {{1, 5, false}, {1, 5, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 4u);
    // The controller purged the sole holder not knowing it was dirty;
    // the oracle verified P1 read the silently written value.
    EXPECT_GE(sys.dirCtrl(0).stats().purges.value(), 1u);
}

TEST(YfTimed, CleanSoleHolderAnswersPurgeToo)
{
    TimedSystem sys(config(2));
    Script script({
        {{0, 5, false}}, // exclusive-clean, never written
        {{1, 5, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 2u);
    // Depending on arrival order the second read either found two
    // holders (no purge) or purged the clean exclusive owner; both
    // quiesce and verify.
    EXPECT_LE(sys.dirCtrl(0).stats().purges.value(), 1u);
}

TEST(YfTimed, CleanEjectRaceAnswersPurge)
{
    // Unique to Yen-Fu: the queried sole holder may CLEAN-eject its
    // exclusive copy while the purge is in flight; the controller
    // must accept the EJECT(read) as the answer (ejectReadAnswersWait).
    TimedConfig cfg = config(2, 1, 1); // 1-block cache
    TimedSystem sys(cfg);
    Script script({
        {{0, 4, false}, {0, 12, false}}, // exclusive 4, then evict it
        {{1, 4, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 3u);
}

TEST(YfTimed, DirtyEjectOfSilentUpgradeWritesBack)
{
    TimedConfig cfg = config(1, 1, 1);
    TimedSystem sys(cfg);
    Script script({{{0, 4, false}, // exclusive
                    {0, 4, true},  // silent upgrade
                    {0, 12, false}, // evicts dirty 4
                    {0, 4, false}}});
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 4u);
    // The final read sees the silently written value via memory
    // (oracle-checked); the write-back was an EJECT(write).
    EXPECT_GE(sys.dirCtrl(0).stats().ejectsData.value(), 1u);
}

TEST(YfTimed, ConcurrentUpgradeRaceSerialises)
{
    TimedConfig cfg = config(3, 16, 2);
    cfg.dirLatency = 8;
    TimedSystem sys(cfg);
    const Addr a = 7;
    Script script({
        {{0, a, false}, {0, a, true}},
        {{1, a, false}, {1, a, true}},
        {{2, 9, false}, {2, 11, false}, {2, 13, false}},
    });
    const auto r = sys.run(script.source(), 100);
    EXPECT_EQ(r.refsCompleted, 7u);
    // Both stores completed through some serialisation: either
    // MREQUEST grant + conversion, or purge-mediated write misses.
    EXPECT_GE(sys.dirCtrl(0).stats().grantsTrue.value() +
                  sys.dirCtrl(0).stats().purges.value(),
              1u);
}

// At 16 processors a sharer's clean EJECT can still be in flight when
// an INVALIDATE has already cleared its presence bit and a later
// request PURGEs the block's new sole holder.  Only the sole holder's
// put may answer that purge; the stale EJECT once did, leaving two
// dirty copies or a stuck controller.  Each seed below failed so.
TEST(YfTimed, StaleEjectDoesNotAnswerAPurge)
{
    for (const std::uint64_t seed : {1u, 2u, 14u, 17u, 29u}) {
        TimedConfig cfg = config(16);
        cfg.numModules = 2;
        cfg.perBlockConcurrency = true;
        cfg.network = NetKind::Crossbar;
        TimedSystem sys(cfg);

        SyntheticConfig scfg;
        scfg.numProcs = 16;
        scfg.q = 0.2;
        scfg.w = 0.3;
        scfg.sharedBlocks = 8;
        scfg.privateBlocks = 64;
        scfg.hotBlocks = 16;
        scfg.seed = seed;
        SyntheticStream stream(scfg);
        const auto r = sys.run(
            [&stream](ProcId p) -> std::optional<MemRef> {
                return stream.nextFor(p);
            },
            400);
        EXPECT_EQ(r.refsCompleted, 16u * 400u) << "seed " << seed;
    }
}

// gtest prints a parameter without operator<< as its raw bytes, and
// that dump becomes part of the ctest test name.  perBlock is four
// bytes wide so the struct has no padding: a bool would leave three
// uninitialised bytes whose contents change from run to run.
struct YfParam
{
    std::uint32_t perBlock;
    NetKind net;
    std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<YfParam>);

class YfProperty : public ::testing::TestWithParam<YfParam>
{
};

TEST_P(YfProperty, RandomTrafficStaysCoherent)
{
    const auto prm = GetParam();
    TimedConfig cfg = config(4, 4, 2);
    cfg.numModules = 3;
    cfg.perBlockConcurrency = prm.perBlock != 0;
    cfg.network = prm.net;
    TimedSystem sys(cfg);

    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.3;
    scfg.w = 0.45;
    scfg.sharedBlocks = 10;
    scfg.privateBlocks = 16;
    scfg.hotBlocks = 8;
    scfg.seed = prm.seed;
    SyntheticStream stream(scfg);
    auto src = [&stream](ProcId p) -> std::optional<MemRef> {
        return stream.nextFor(p);
    };

    const auto r = sys.run(src, 2500);
    EXPECT_EQ(r.refsCompleted, 10000u);
    EXPECT_EQ(r.broadcasts, 0u); // directed scheme

    // Silent upgrades must actually occur for the test to mean much.
    std::uint64_t silent = 0;
    for (ProcId p = 0; p < 4; ++p)
        silent += yf(sys, p).silentUpgrades();
    EXPECT_GT(silent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, YfProperty,
    ::testing::Values(YfParam{false, NetKind::Ideal, 1},
                      YfParam{true, NetKind::Ideal, 2},
                      YfParam{true, NetKind::Crossbar, 3},
                      YfParam{false, NetKind::Bus, 4},
                      YfParam{true, NetKind::Ideal, 5},
                      YfParam{false, NetKind::Ideal, 6}),
    [](const ::testing::TestParamInfo<YfParam> &info) {
        const auto &p = info.param;
        std::string name = p.perBlock ? "perblock" : "serial";
        if (p.net == NetKind::Crossbar)
            name += "_xbar";
        else if (p.net == NetKind::Bus)
            name += "_bus";
        return name + "_s" + std::to_string(p.seed);
    });

TEST(YfTimed, FewerUpgradeTransactionsThanFullMap)
{
    // The scheme's raison d'etre: private read-then-write patterns
    // cost zero upgrade transactions.
    auto run = [](TimedProto proto) {
        TimedConfig cfg;
        cfg.protocol = proto;
        cfg.numProcs = 4;
        cfg.numModules = 2;
        cfg.cacheGeom.sets = 16;
        cfg.cacheGeom.ways = 2;
        TimedSystem sys(cfg);
        SyntheticConfig scfg;
        scfg.numProcs = 4;
        scfg.q = 0.02; // almost all private
        scfg.w = 0.3;
        scfg.privateBlocks = 20;
        scfg.hotBlocks = 10;
        scfg.privateWriteFrac = 0.4;
        scfg.seed = 9;
        SyntheticStream stream(scfg);
        auto src = [&stream](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        };
        const auto r = sys.run(src, 3000);
        std::uint64_t mreqs = 0;
        for (ModuleId m = 0; m < 2; ++m)
            mreqs += sys.dirCtrl(m).stats().mrequests.value();
        (void)r;
        return mreqs;
    };
    const auto yfMreqs = run(TimedProto::YenFu);
    const auto fmMreqs = run(TimedProto::FullMap);
    EXPECT_LT(yfMreqs * 3, fmMreqs)
        << "yf " << yfMreqs << " vs fm " << fmMreqs;
}

} // namespace
} // namespace dir2b
