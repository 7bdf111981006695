/**
 * @file
 * Golden-digest regression for the functional tier.
 *
 * Every functional scheme is driven by one fixed synthetic stream (with
 * periodic context-switch flushes where the scheme supports them) at
 * 4, 64 and 130 processors; 130 spans three 64-bit words of any
 * per-block processor mask.  Each digest folds every AccessCounts
 * field, the per-processor received/useless/issued tallies and the
 * final image of every cache, so a storage or speed change that moves
 * a single command, tally, line or value fails here.
 *
 * A second set of pins fixes the tiered directory store under a RAM
 * budget: a scheme's directory reads drive the store's clock and
 * promotions, so moving, dropping or adding one read changes the
 * page-tier counters even where every coherence counter stays put.
 *
 * The digests were captured before the per-block holder index existed
 * (when broadcasts visited every cache one by one).  Regenerate them
 * ONLY for an intentional protocol change, never for an optimisation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "proto/protocol_factory.hh"
#include "stats_digest.hh"
#include "trace/reference.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace dir2b
{
namespace
{

constexpr std::uint64_t goldenRefs = 40000;
constexpr std::uint64_t flushEvery = 1009;

std::uint64_t
digestRun(const std::string &scheme, ProcId n, bool snoopFilter)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.numModules = 4;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.tbCapacity = 8;
    cfg.biasCapacity = 4;
    cfg.snoopFilter = snoopFilter;
    cfg.nonCacheableBase = sharedRegionBase;
    auto proto = makeProtocol(scheme, cfg);

    SyntheticConfig scfg;
    scfg.numProcs = n;
    scfg.q = 0.3;
    scfg.w = 0.3;
    scfg.sharedBlocks = 24;
    scfg.privateBlocks = 48;
    scfg.hotBlocks = 12;
    scfg.seed = 0x901de9;
    SyntheticStream stream(scfg);

    for (std::uint64_t i = 0; i < goldenRefs; ++i) {
        const MemRef ref = *stream.next();
        proto->access(ref.proc, ref.addr, ref.write, i + 1);
        if (proto->supportsFlush() && i % flushEvery == flushEvery - 1)
            proto->flushCache(static_cast<ProcId>((i / flushEvery) % n));
    }

    std::uint64_t h = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        proto->counts(),
        [&](const char *, std::uint64_t v) { h = fold(h, v); });
    for (ProcId p = 0; p < n; ++p) {
        h = fold(h, proto->cmdsReceivedBy(p));
        h = fold(h, proto->uselessReceivedBy(p));
        h = fold(h, proto->refsIssuedBy(p));
        proto->cache(p).forEachValid([&](const CacheLine &l) {
            h = fold(h, l.addr);
            h = fold(h, static_cast<std::uint64_t>(l.state));
            h = fold(h, l.value);
        });
    }
    return h;
}

struct GoldenCase
{
    const char *scheme;
    bool snoopFilter;
    std::uint64_t digest4;
    std::uint64_t digest64;
    std::uint64_t digest130;
};

// clang-format off
const GoldenCase goldenCases[] = {
    {"two_bit",        false, 0xb8129bfbe4c17e8aULL,
     0x90fd249f7a26809cULL, 0x4f636b2ec2e1f401ULL},
    {"two_bit",        true,  0x399c3493d4b0d41aULL,
     0xd4999d4440e998feULL, 0x016a023ee95e0bc2ULL},
    {"two_bit_tb",     false, 0x302e3a3477622868ULL,
     0x877d65256a674d17ULL, 0x4a3d06ead03da07dULL},
    {"two_bit_wt",     false, 0xda7cf564bc3f9a41ULL,
     0xdc3583cbbdca9000ULL, 0x8a27bf94104d8a6fULL},
    {"full_map",       false, 0xe8fe78e2d505aeecULL,
     0x4a8c85d7fb5cbb83ULL, 0x42796eba22f1da57ULL},
    {"full_map_local", false, 0xb4fecd5aad0ab7e4ULL,
     0xe736e78c523a7d14ULL, 0x194e3894ed48e903ULL},
    {"dup_dir",        false, 0xaf77ce22f0f2dc4cULL,
     0x9ed3cc9bfca8c260ULL, 0x46c975572698fc90ULL},
    {"classical",      false, 0x0ab4382475163153ULL,
     0xb73f3ed4e76a17d2ULL, 0x3a5964449f364e66ULL},
    {"write_once",     false, 0x4403a6a53c61461fULL,
     0x9efa9d285086a2c1ULL, 0x1e00c6daccdc6465ULL},
    {"illinois",       false, 0xba83b10bb06dad25ULL,
     0x0e14cd522a23f394ULL, 0xe73ede1fecfa1149ULL},
    {"software",       false, 0x0e6e305c99e18568ULL,
     0x51971b24c08c23a8ULL, 0x64fcc7706dce0818ULL},
    {"two_bit_table",  false, 0xb8129bfbe4c17e8aULL,
     0x90fd249f7a26809cULL, 0x4f636b2ec2e1f401ULL},
    {"full_map_table", false, 0xe8fe78e2d505aeecULL,
     0x4a8c85d7fb5cbb83ULL, 0x42796eba22f1da57ULL},
    {"moesi",          false, 0xdd700be0f7ef51b7ULL,
     0x0e325335c7dd1cd0ULL, 0x2b9cc3b66568fd27ULL},
};
// clang-format on

void
expectDigest(const GoldenCase &c, ProcId n, std::uint64_t want)
{
    const std::uint64_t got = digestRun(c.scheme, n, c.snoopFilter);
    EXPECT_EQ(got, want) << c.scheme << (c.snoopFilter ? "+snoop" : "")
                         << " at " << n << " procs: digest 0x"
                         << std::hex << got << " != golden 0x" << want;
}

TEST(FuncGoldenDigest, FourProcs)
{
    for (const GoldenCase &c : goldenCases)
        expectDigest(c, 4, c.digest4);
}

TEST(FuncGoldenDigest, SixtyFourProcs)
{
    for (const GoldenCase &c : goldenCases)
        expectDigest(c, 64, c.digest64);
}

TEST(FuncGoldenDigest, OneHundredThirtyProcs)
{
    for (const GoldenCase &c : goldenCases)
        expectDigest(c, 130, c.digest130);
}

TEST(FuncGoldenDigest, EverySchemeIsCovered)
{
    for (const std::string &name : protocolNames()) {
        bool found = false;
        for (const GoldenCase &c : goldenCases)
            found = found || name == c.scheme;
        EXPECT_TRUE(found) << name << " has no golden digest";
    }
}

constexpr std::uint64_t tierRefs = 20000;

/** Tier counters after a scattered stream under a 2 KiB directory
 *  budget; `counts` receives an FNV-1a digest of AccessCounts.  Each
 *  hot block sits in its own directory page, so a hit on one usually
 *  finds its page cold; the rest are misses over 256 pages. */
DirStoreCounters
tieredRun(const std::string &scheme, ProcId n, std::uint64_t &counts)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.numModules = 1;
    cfg.cacheGeom.sets = 16;
    cfg.cacheGeom.ways = 2;
    cfg.dirRamBudget = 2048;
    auto proto = makeProtocol(scheme, cfg);

    Rng rng(0x7153d1);
    for (std::uint64_t i = 0; i < tierRefs; ++i) {
        const auto p = static_cast<ProcId>(rng.range(n));
        const Addr a = rng.chance(0.6) ? rng.range(64) * 4099
                                       : rng.range(Addr{1} << 20);
        proto->access(p, a, rng.chance(0.3), i + 1);
    }
    counts = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        proto->counts(),
        [&](const char *, std::uint64_t v) { counts = fold(counts, v); });
    return proto->dirStoreCounters();
}

struct TierCase
{
    const char *scheme;
    ProcId procs;
    std::uint64_t compressions;
    std::uint64_t decompressions;
    std::uint64_t hotPages;
    std::uint64_t coldPages;
    std::uint64_t diskPages;
    std::uint64_t residentBytes;
    std::uint64_t counts; ///< AccessCounts digest
};

// two_bit never reads its directory on a hit; the table schemes read
// it on every reference, so their page traffic differs from it.
// clang-format off
const TierCase tierCases[] = {
    {"two_bit",        4,  31984, 31729, 1, 31, 224, 2017,
     0xaa1d84ca70f92ef2ULL},
    {"two_bit",        64, 26757, 26502, 1, 10, 245, 2014,
     0xda74cc8a039155d6ULL},
    {"two_bit_table",  4,  34129, 33874, 1, 31, 224, 2017,
     0xaa1d84ca70f92ef2ULL},
    {"two_bit_table",  64, 27105, 26850, 1, 10, 245, 2014,
     0xda74cc8a039155d6ULL},
    {"full_map_table", 4,  34129, 33874, 1, 34, 221, 2036,
     0x7f12ea27680bdaa3ULL},
    {"full_map_table", 64, 27105, 26850, 1, 10, 245, 2014,
     0xbd2fe7e61860364cULL},
};
// clang-format on

TEST(FuncGoldenTiers, BudgetedDirectoryCountersArePinned)
{
    for (const TierCase &c : tierCases) {
        std::uint64_t counts = 0;
        const DirStoreCounters d = tieredRun(c.scheme, c.procs, counts);
        const std::string at =
            std::string(c.scheme) + " at " + std::to_string(c.procs);
        EXPECT_EQ(d.ramBudgetBytes, 2048u) << at;
        EXPECT_EQ(d.compressions, c.compressions) << at;
        EXPECT_EQ(d.decompressions, c.decompressions) << at;
        EXPECT_EQ(d.hotPages, c.hotPages) << at;
        EXPECT_EQ(d.coldPages, c.coldPages) << at;
        EXPECT_EQ(d.diskPages, c.diskPages) << at;
        EXPECT_EQ(d.residentBytes, c.residentBytes) << at;
        EXPECT_EQ(counts, c.counts) << at << ": counts digest 0x"
                                    << std::hex << counts;
    }
}

} // namespace
} // namespace dir2b
