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

#include "timed/timed_system.hh"
#include "trace/synthetic.hh"

namespace dir2b
{
namespace
{

std::uint64_t
fold(std::uint64_t h, std::uint64_t x)
{
    // FNV-1a over the eight bytes of x.
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t digestStats(const TimedRunResult &r,
                          const TimedSystem &sys);

/** Run one fixed-seed timed configuration and digest its statistics. */
std::uint64_t
digestRun(TimedProto proto, bool perBlock, NetKind net,
          std::uint64_t dirRamBudget = 0)
{
    TimedConfig cfg;
    cfg.protocol = proto;
    cfg.numProcs = 4;
    cfg.numModules = 2;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.perBlockConcurrency = perBlock;
    cfg.network = net;
    cfg.dirRamBudget = dirRamBudget;

    SyntheticConfig scfg;
    scfg.numProcs = 4;
    scfg.q = 0.2;
    scfg.w = 0.3;
    scfg.sharedBlocks = 8;
    scfg.privateBlocks = 64;
    scfg.hotBlocks = 16;
    scfg.seed = 0xd16e57;
    SyntheticStream stream(scfg);

    TimedSystem sys(cfg);
    const TimedRunResult r = sys.run(
        [&](ProcId p) -> std::optional<MemRef> {
            return stream.nextFor(p);
        },
        400);
    return digestStats(r, sys);
}

std::uint64_t
digestStats(const TimedRunResult &r, const TimedSystem &sys)
{
    const TimedConfig &cfg = sys.config();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fold(h, r.finalTick);
    h = fold(h, r.refsCompleted);
    h = fold(h, r.eventsExecuted);
    h = fold(h, r.stolenCycles);
    h = fold(h, r.mrequestConversions);
    h = fold(h, r.mreqDeleted);
    h = fold(h, r.putsConsumed);
    h = fold(h, r.putsAwaited);
    h = fold(h, r.grantsFalse);
    h = fold(h, r.netMessages);
    h = fold(h, r.broadcasts);
    h = fold(h, r.netWaitCycles);
    h = fold(h, r.readsChecked);
    h = fold(h, r.writesRecorded);

    for (ProcId p = 0; p < cfg.numProcs; ++p) {
        const auto &s = sys.cacheCtrl(p).stats();
        h = fold(h, s.readHits.value());
        h = fold(h, s.writeHits.value());
        h = fold(h, s.readMisses.value());
        h = fold(h, s.writeMisses.value());
        h = fold(h, s.mrequests.value());
        h = fold(h, s.staleGrantsIgnored.value());
        h = fold(h, s.invalidationsApplied.value());
        h = fold(h, s.queriesAnswered.value());
        h = fold(h, s.writebacksSent.value());
    }
    for (ModuleId m = 0; m < cfg.numModules; ++m) {
        const auto &s = sys.dirCtrl(m).stats();
        h = fold(h, s.requests.value());
        h = fold(h, s.mrequests.value());
        h = fold(h, s.ejectsData.value());
        h = fold(h, s.ejectsIgnored.value());
        h = fold(h, s.ejectsApplied.value());
        h = fold(h, s.broadInvs.value());
        h = fold(h, s.broadQueries.value());
        h = fold(h, s.directedInvs.value());
        h = fold(h, s.purges.value());
        h = fold(h, s.grantsTrue.value());
        h = fold(h, s.grantsFalse.value());
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
