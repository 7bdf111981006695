/**
 * @file
 * Cross-interpreter lockstep: the table-driven re-expression of
 * two_bit must be bit-identical to the hand-written original — every
 * access return value, every per-access counter delta, the cumulative
 * counters, per-processor received-command counters, every cache
 * line, and the final images.
 *
 * The pinned digests at the bottom freeze that behaviour the same way
 * test_golden_digest.cc freezes the timed tier: the functional-tier
 * digest of each table protocol on a fixed contended trace is a
 * checked-in constant, equal BY VALUE to the hand-written scheme's
 * digest for the lockstep pair.  The full-map digest was captured when
 * a hand-written full map still existed and matched it.  Regenerate
 * only for an intentional protocol change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "check/differ.hh"
#include "proto/protocol_factory.hh"
#include "stats_digest.hh"

namespace dir2b
{
namespace
{

FuzzConfig
campaign()
{
    FuzzConfig fc;
    fc.numSeeds = 6;
    fc.refsPerSeed = 3000;
    fc.baseSeed = 0x7ab1e;
    return fc;
}

TEST(Lockstep, PairIsTwoBitAndItsTable)
{
    // The full map has one implementation, the table, so two_bit is the
    // only hand-written scheme left with a table twin.
    const auto pairs = lockstepPairs();
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].first, "two_bit");
    EXPECT_EQ(pairs[0].second, "two_bit_table");
}

TEST(Lockstep, TablesMatchHandWrittenOnFuzzTraces)
{
    const FuzzConfig fc = campaign();
    for (const auto &[ref, sub] : lockstepPairs()) {
        for (std::uint64_t seed = 0; seed < fc.numSeeds; ++seed) {
            LockstepConfig lc;
            lc.reference = ref;
            lc.subject = sub;
            const auto fail = lockstepTrace(lc, fuzzTrace(fc, seed));
            EXPECT_FALSE(fail)
                << sub << " seed " << seed << ": " << fail->kind
                << " at step " << fail->step << ": " << fail->detail;
        }
    }
}

TEST(Lockstep, FlushPathMatchesHandWrittenEvictions)
{
    const FuzzConfig fc = campaign();
    for (const auto &[ref, sub] : lockstepPairs()) {
        LockstepConfig lc;
        lc.reference = ref;
        lc.subject = sub;
        lc.flushEvery = 53;
        const auto fail = lockstepTrace(lc, fuzzTrace(fc, 0));
        EXPECT_FALSE(fail)
            << sub << " with flushes: " << fail->kind << " at step "
            << fail->step << ": " << fail->detail;
    }
}

TEST(Lockstep, BudgetedDirectoriesMatchWhilePagesCycle)
{
    // A table hit skips the directory read but touches a budgeted
    // directory's page; with the trace scattered over 256 pages and a
    // 2 KiB budget, pages cycle on nearly every reference.
    FuzzConfig fc = campaign();
    fc.spaceBlocks = std::uint64_t{1} << 20;
    for (const auto &[ref, sub] : lockstepPairs()) {
        LockstepConfig lc;
        lc.reference = ref;
        lc.subject = sub;
        lc.dirRamBudget = 2048;
        for (std::uint64_t seed = 0; seed < 2; ++seed) {
            const auto trace = fuzzTrace(fc, seed);
            const auto fail = lockstepTrace(lc, trace);
            EXPECT_FALSE(fail)
                << sub << " seed " << seed << ": " << fail->kind
                << " at step " << fail->step << ": " << fail->detail;

            ProtoConfig pc;
            pc.numProcs = lc.numProcs;
            pc.numModules = lc.numModules;
            pc.cacheGeom.sets = lc.sets;
            pc.cacheGeom.ways = lc.ways;
            pc.dirRamBudget = lc.dirRamBudget;
            const auto proto = makeProtocol(sub, pc);
            for (const MemRef &r : trace)
                proto->access(r.proc, r.addr, r.write, 1);
            EXPECT_GT(proto->dirStoreCounters().decompressions, 1000u)
                << sub << " seed " << seed;
        }
    }
}

TEST(Lockstep, CampaignEntryPointIsClean)
{
    const auto fail = lockstepFuzz(campaign());
    EXPECT_FALSE(fail) << fail->protocol << ": " << fail->kind << ": "
                       << fail->detail;
}

// Negative control: the comparator must actually detect divergence.
// two_bit broadcasts where full_map sends directed commands, so
// running them as a "pair" has to fail on a counter delta.
TEST(Lockstep, DetectsDivergingInterpreters)
{
    const FuzzConfig fc = campaign();
    LockstepConfig lc;
    lc.reference = "two_bit";
    lc.subject = "full_map";
    const auto fail = lockstepTrace(lc, fuzzTrace(fc, 0));
    ASSERT_TRUE(fail);
    EXPECT_EQ(fail->kind, "lockstep-delta");
}

/** Functional-tier digest: a fixed contended trace, FNV-1a over every
 *  counter field, the per-processor command counters, and the final
 *  per-block images. */
std::uint64_t
digestProtocol(const std::string &name)
{
    FuzzConfig fc;
    fc.numSeeds = 1;
    fc.refsPerSeed = 5000;
    fc.baseSeed = 0xd16257;
    const auto trace = fuzzTrace(fc, 0);

    ProtoConfig pc;
    pc.numProcs = fc.diff.numProcs;
    pc.numModules = fc.diff.numModules;
    pc.cacheGeom.sets = fc.diff.sets;
    pc.cacheGeom.ways = fc.diff.ways;
    const auto proto = makeProtocol(name, pc);

    Value nonce = 0;
    for (const MemRef &r : trace)
        proto->access(r.proc, r.addr, r.write, r.write ? ++nonce : 0);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    AccessCounts::forEachField(
        proto->counts(),
        [&](const char *, std::uint64_t v) { h = fold(h, v); });
    for (ProcId p = 0; p < pc.numProcs; ++p) {
        h = fold(h, proto->cmdsReceivedBy(p));
        h = fold(h, proto->uselessReceivedBy(p));
        h = fold(h, proto->refsIssuedBy(p));
    }
    std::set<Addr> blocks;
    for (const MemRef &r : trace)
        blocks.insert(r.addr);
    for (const Addr a : blocks) {
        Value v = proto->memValue(a);
        for (ProcId p = 0; p < pc.numProcs; ++p) {
            const CacheLine *l = proto->cache(p).peek(a);
            if (l && l->valid() && l->dirty())
                v = l->value;
        }
        h = fold(h, v);
    }
    return h;
}

struct GoldenCase
{
    const char *table;      ///< table-driven scheme
    const char *reference;  ///< hand-written equal, or ""
    std::uint64_t digest;
};

// Captured from the first table-engine build.  two_bit_table must
// also equal its hand-written reference at runtime — the digest is
// pinned AND cross-checked.
const GoldenCase goldenCases[] = {
    {"two_bit_table", "two_bit", 0xfeb02f0eedaad5cdULL},
    {"full_map_table", "", 0x694edcae1778aa2cULL},
    {"moesi", "", 0xc84e87d6891f3443ULL},
};

TEST(TableGoldenDigest, FunctionalDigestsMatchCheckedInValues)
{
    for (const auto &c : goldenCases) {
        const std::uint64_t got = digestProtocol(c.table);
        EXPECT_EQ(got, c.digest)
            << c.table << ": digest 0x" << std::hex << got
            << " != golden 0x" << c.digest;
        if (c.reference[0] != '\0') {
            EXPECT_EQ(digestProtocol(c.reference), got)
                << c.table << " diverged from " << c.reference;
        }
    }
}

} // namespace
} // namespace dir2b
