/**
 * @file
 * Golden-digest determinism regression for the timed tier.
 *
 * Every timed run must be bit-for-bit deterministic: same seed, same
 * config => same final tick, same event count, same per-component
 * statistics.  This test pins that property to checked-in digests so
 * that any rewrite of the event kernel, the network, or the
 * controllers that silently changes scheduling order (or event count)
 * fails loudly — the digests below were captured from the
 * priority-queue kernel that shipped before the timing-wheel rewrite
 * and must never drift.
 *
 * The digest folds only integer statistics (no floating point) via
 * FNV-1a, so it is stable across platforms and optimisation levels.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "stats_digest.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"

namespace dir2b
{
namespace
{

/** The fixed configuration every pinned run uses. */
TimedConfig
fixedConfig(TimedProto proto, bool perBlock, NetKind net,
            std::uint64_t dirRamBudget, ProcId procs, bool snoop)
{
    TimedConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = procs;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = perBlock;
    cfg.network = net;
    cfg.dirRamBudget = dirRamBudget;
    cfg.snoopFilter = snoop;
    return cfg;
}

/** The fixed-seed workload of every pinned run. */
SyntheticConfig
fixedWorkload(ProcId procs)
{
    SyntheticConfig scfg;
    scfg.numProcs = procs;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    return scfg;
}

/** Run one fixed-seed timed configuration and digest its statistics.
 *  A run with more than four processors or the duplicate directory
 *  also folds each cache's stolen and filtered counts. */
std::uint64_t
digestRun(TimedProto proto, bool perBlock, NetKind net,
          std::uint64_t dirRamBudget = 0, ProcId procs = 4,
          bool snoop = false, Tick thinkTime = 1)
{
    TimedConfig cfg =
        fixedConfig(proto, perBlock, net, dirRamBudget, procs, snoop);
    cfg.thinkTime = thinkTime;
    SyntheticStream stream(fixedWorkload(procs));

    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        400);
    std::uint64_t h = digestStats(r, sys);
    if (procs == 4 && !snoop)
        return h;
    h = fold(h, r.filteredCmds);
    for (ProcId p = 0; p < procs; ++p) {
        const auto &s = sys.cacheCtrl(p).stats();
        h = fold(h, s.stolenCycles.value());
        h = fold(h, s.filteredCmds.value());
    }
    return h;
}

struct GoldenCase
{
    const char *name;
    TimedProto proto;
    bool perBlock;
    NetKind net;
    std::uint64_t digest;
};

// Captured from the pre-rewrite (priority-queue) kernel; see file
// header.  Regenerate ONLY for an intentional protocol change, never
// for a kernel/storage optimisation.
const GoldenCase goldenCases[] = {
    {"two_bit_serial_ideal", TimedProto::TwoBit, false, NetKind::Ideal,
     0x26d8969a443767abULL},
    {"two_bit_perblock_crossbar", TimedProto::TwoBit, true,
     NetKind::Crossbar, 0x51bb7ead2ab4e2e2ULL},
    {"two_bit_serial_bus", TimedProto::TwoBit, false, NetKind::Bus,
     0x9fc95fb8e06d85f1ULL},
    {"full_map_serial_ideal", TimedProto::FullMap, false, NetKind::Ideal,
     0xffc915f80b00b7ccULL},
    {"full_map_perblock_crossbar", TimedProto::FullMap, true,
     NetKind::Crossbar, 0x5994774b5ae7d0dbULL},
    {"yen_fu_serial_ideal", TimedProto::YenFu, false, NetKind::Ideal,
     0xfe831cf225b0e715ULL},
    {"yen_fu_perblock_crossbar", TimedProto::YenFu, true,
     NetKind::Crossbar, 0x0d92ed141c55caf7ULL},
};

TEST(GoldenDigest, TimedTierMatchesCheckedInDigests)
{
    for (const auto &c : goldenCases) {
        const std::uint64_t got = digestRun(c.proto, c.perBlock, c.net);
        EXPECT_EQ(got, c.digest)
            << c.name << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

struct FanoutCase
{
    const char *name;
    bool perBlock;
    NetKind net;
    ProcId procs;
    bool snoop;
    std::uint64_t digest;
};

// Two-bit broadcasts that reach 63 and 129 caches, most of which hold
// no copy: the crossbar spreads one broadcast over several delivery
// ticks, the bus and the ideal network put every copy on one tick, and
// at 130 processors a block's holder bitmap spans three words.
// Captured before broadcasts were delivered one dispatch per tick.
const FanoutCase fanoutCases[] = {
    {"two_bit_64_perblock_crossbar", true, NetKind::Crossbar, 64, false,
     0xf79530098e5e7764ULL},
    {"two_bit_64_serial_bus", false, NetKind::Bus, 64, false,
     0x05a62fe017d0f816ULL},
    {"two_bit_64_serial_ideal", false, NetKind::Ideal, 64, false,
     0xc195a01a50ae713eULL},
    {"two_bit_64_perblock_crossbar_snoop", true, NetKind::Crossbar, 64,
     true, 0xfeedaec68c06f8ffULL},
    {"two_bit_130_perblock_crossbar", true, NetKind::Crossbar, 130,
     false, 0x65210a66c4c26d7bULL},
};

TEST(GoldenDigest, TwoBitFanoutMatchesCheckedInDigests)
{
    for (const auto &c : fanoutCases) {
        const std::uint64_t got = digestRun(
            TimedProto::TwoBit, c.perBlock, c.net, 0, c.procs, c.snoop);
        EXPECT_EQ(got, c.digest)
            << c.name << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

// Full map and Yen-Fu at 16 processors with the duplicate directory:
// directed INVALIDATEs and PURGEs, stale presence bits and racing
// ejections, on the crossbar and on the bus.  The full-map rows were
// captured before the three controllers shared one skeleton, the
// Yen-Fu rows once a stale EJECT could no longer answer a PURGE
// (before, both runs ended with two dirty copies of a block).
const GoldenCase directedCases[] = {
    {"full_map_16_perblock_crossbar_snoop", TimedProto::FullMap, true,
     NetKind::Crossbar, 0xf635b87debc94eb3ULL},
    {"full_map_16_serial_bus_snoop", TimedProto::FullMap, false,
     NetKind::Bus, 0x7b92797a09a2246bULL},
    {"yen_fu_16_perblock_crossbar_snoop", TimedProto::YenFu, true,
     NetKind::Crossbar, 0x268d475ee9cbb8cbULL},
    {"yen_fu_16_serial_bus_snoop", TimedProto::YenFu, false,
     NetKind::Bus, 0x563c63b60a8c7101ULL},
};

TEST(GoldenDigest, DirectedSchemesMatchCheckedInDigests)
{
    for (const auto &c : directedCases) {
        const std::uint64_t got =
            digestRun(c.proto, c.perBlock, c.net, 0, 16, true);
        EXPECT_EQ(got, c.digest)
            << c.name << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

// Two-bit at 16 processors with a think time beyond the event
// kernel's 1024-tick ring: every issue waits in the overflow heap and
// moves into the ring as time reaches it.  Captured from the four-level
// timing wheel.
TEST(GoldenDigest, FarThinkTimeMatchesCheckedInDigest)
{
    const std::uint64_t got = digestRun(TimedProto::TwoBit, true,
                                        NetKind::Crossbar, 0, 16, false,
                                        /*thinkTime=*/1500);
    EXPECT_EQ(got, 0xc12c0fd6ecb36c95ULL)
        << "digest 0x" << std::hex << got;
}

// A broadcast's copies that share a delivery tick are one dispatch,
// and the INVACKs of caches without a copy are none, while the logical
// event count stays the one pinned before that change.
TEST(GoldenDigest, TwoBitFanoutDispatchesFewerThanHalfItsEvents)
{
    const TimedConfig cfg = fixedConfig(TimedProto::TwoBit, true,
                                        NetKind::Crossbar, 0, 64, false);
    SyntheticStream stream(fixedWorkload(64));
    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        400);
    EXPECT_EQ(r.eventsExecuted, 323390u);
    EXPECT_EQ(sys.queue().executed(), r.eventsExecuted);
    EXPECT_EQ(sys.queue().pending(), 0u);
    EXPECT_LE(2 * sys.queue().dispatched(), r.eventsExecuted)
        << sys.queue().dispatched() << " dispatches";
}

TEST(GoldenDigest, RepeatedRunsAreIdentical)
{
    const auto a =
        digestRun(TimedProto::TwoBit, true, NetKind::Crossbar);
    const auto b =
        digestRun(TimedProto::TwoBit, true, NetKind::Crossbar);
    EXPECT_EQ(a, b);
}

// The tiered directory store must be invisible to every statistic: a
// RAM budget of one 1 KiB page per module forces constant
// compress/evict/reload traffic through the cold (and, where
// available, disk) tiers, and every locked digest must still match.
TEST(GoldenDigest, TinyDirBudgetMatchesCheckedInDigests)
{
    for (const auto &c : goldenCases) {
        const std::uint64_t got = digestRun(c.proto, c.perBlock, c.net,
                                            /*dirRamBudget=*/2048);
        EXPECT_EQ(got, c.digest)
            << c.name << " (tiny budget): digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
    }
}

} // namespace
} // namespace dir2b
