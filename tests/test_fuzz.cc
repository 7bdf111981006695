/**
 * @file
 * Differential fuzzer, shrinker, and seed-file tests (ctest label:
 * fuzz_smoke).
 *
 * Three layers:
 *  - clean campaigns: every functional scheme plus the timed tier
 *    agree on seeded random traces, independent of worker-pool width;
 *  - the planted-mutation acceptance test: a two-bit variant with a
 *    known bug (it corrupts the data returned when ownership of a
 *    PresentM block transfers on a read miss) must be caught by the
 *    campaign, shrunk to a 1-minimal trace, archived as a seed file,
 *    and still fail when the seed is replayed;
 *  - ddmin unit tests on synthetic predicates, pinning 1-minimality
 *    and the attempt budget without any protocol in the loop.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/differ.hh"
#include "check/shrink.hh"
#include "core/two_bit_protocol.hh"
#include "proto/protocol_factory.hh"
#include "temp_path.hh"

namespace dir2b
{
namespace
{

// ---------------------------------------------------------------------
// Clean campaigns.

TEST(Fuzz, CleanCampaignFindsNothing)
{
    FuzzConfig fc;
    fc.numSeeds = 4;
    fc.refsPerSeed = 600;
    const FuzzResult r = fuzzMany(fc);
    EXPECT_EQ(r.seedsRun, 4u);
    EXPECT_EQ(r.refsReplayed, 4u * 600u);
    EXPECT_TRUE(r.failures.empty())
        << r.failures.front().failure.protocol << ": "
        << r.failures.front().failure.detail;
}

TEST(Fuzz, CampaignWithTimedTierFindsNothing)
{
    FuzzConfig fc;
    fc.numSeeds = 2;
    fc.refsPerSeed = 400;
    fc.diff.withTimed = true;
    const FuzzResult r = fuzzMany(fc);
    EXPECT_TRUE(r.failures.empty())
        << r.failures.front().failure.kind << ": "
        << r.failures.front().failure.detail;
}

TEST(Fuzz, VerdictIndependentOfThreadCount)
{
    FuzzConfig fc;
    fc.numSeeds = 3;
    fc.refsPerSeed = 300;
    const FuzzResult serial = fuzzMany(fc, 1);
    const FuzzResult wide = fuzzMany(fc, 4);
    EXPECT_EQ(serial.failures.size(), wide.failures.size());
    EXPECT_EQ(serial.refsReplayed, wide.refsReplayed);
}

TEST(Fuzz, TracesAreDeterministicPerIndex)
{
    FuzzConfig fc;
    fc.refsPerSeed = 200;
    const auto a = fuzzTrace(fc, 3);
    const auto b = fuzzTrace(fc, 3);
    const auto c = fuzzTrace(fc, 4);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    EXPECT_FALSE(c.size() == a.size() &&
                 std::equal(a.begin(), a.end(), c.begin()));
}

// ---------------------------------------------------------------------
// The planted mutation.

/**
 * A two-bit scheme with a deliberate, deterministic bug: when a read
 * miss transfers ownership of a PresentM block, the data handed to
 * the requester is corrupted (the structural protocol actions —
 * write-back, SETSTATE, invalidations — all still happen).  This
 * models a lost-update bug on the §3.2.2 case-3 path and is exactly
 * the class of error the differential fuzzer exists to catch; it
 * never trips the scheme's own internal assertions, so the failure
 * always comes back as data.
 */
class LossyQueryTwoBit : public TwoBitProtocol
{
  public:
    explicit LossyQueryTwoBit(const ProtoConfig &cfg)
        : TwoBitProtocol("two_bit", cfg)
    {}

  protected:
    Value
    sendRemoteQuery(Addr a, ProcId requester, RW rw) override
    {
        const Value v =
            TwoBitProtocol::sendRemoteQuery(a, requester, rw);
        // Reads get a corrupted word; write misses overwrite the
        // whole block anyway, so only the read path misbehaves.
        return rw == RW::Read ? v ^ 0x1 : v;
    }
};

ProtocolMaker
lossyMaker()
{
    return [](const std::string &name, const ProtoConfig &cfg)
               -> std::unique_ptr<Protocol> {
        if (name == "two_bit")
            return std::make_unique<LossyQueryTwoBit>(cfg);
        return makeProtocol(name, cfg);
    };
}

DiffConfig
lossyDiffConfig()
{
    DiffConfig cfg;
    // The healthy full_map runs alongside as the differential witness.
    cfg.protocols = {"two_bit", "full_map"};
    cfg.numProcs = 3;
    // The mutation corrupts values, never structure, so the native
    // invariant suite stays quiet either way; disabled here because a
    // replay of a known-broken scheme must never abort.
    cfg.nativeInvariants = false;
    return cfg;
}

TEST(PlantedMutation, DirectedTraceIsCaught)
{
    // P1 takes ownership, P0's read miss hits the lossy query path.
    const std::vector<MemRef> trace = {
        {1, sharedRegionBase, true},
        {0, sharedRegionBase, false},
    };
    const auto verdict = diffTrace(lossyDiffConfig(), trace,
                                   lossyMaker());
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->protocol, "two_bit");
    EXPECT_EQ(verdict->kind, "stale-read");
    EXPECT_EQ(verdict->step, 1u);

    // The identical trace through the real schemes is clean.
    EXPECT_FALSE(
        diffTrace(lossyDiffConfig(), trace).has_value());
}

/** The full acceptance pipeline: fuzz -> catch -> shrink -> archive
 *  -> replay. */
TEST(PlantedMutation, CampaignCatchesShrinksAndReplays)
{
    FuzzConfig fc;
    fc.diff = lossyDiffConfig();
    fc.numSeeds = 4;
    fc.refsPerSeed = 500;
    // Contended shape: shared reads after shared writes are common,
    // so the lossy ownership transfer fires in every seed.
    fc.q = 0.5;
    fc.w = 0.5;
    fc.sharedBlocks = 4;

    const FuzzResult r = fuzzMany(fc, 0, lossyMaker());
    ASSERT_FALSE(r.failures.empty());
    const FuzzFailure &f = r.failures.front();
    EXPECT_EQ(f.failure.protocol, "two_bit");
    ASSERT_FALSE(f.trace.empty());

    // Shrink under the same verdict function the fuzzer used.
    const auto fails = [&](const std::vector<MemRef> &t) {
        return diffTrace(fc.diff, t, lossyMaker()).has_value();
    };
    ShrinkStats stats;
    const auto minimal = shrinkTrace(f.trace, fails, 100000, &stats);
    EXPECT_EQ(stats.initialSize, f.trace.size());
    EXPECT_EQ(stats.finalSize, minimal.size());
    EXPECT_GT(stats.attempts, 0u);

    // The bug needs one writer (PresentM) and one remote reader: the
    // minimal reproducer is two references.
    ASSERT_FALSE(minimal.empty());
    EXPECT_TRUE(fails(minimal));
    EXPECT_LE(minimal.size(), 3u);

    // 1-minimality: removing any single reference loses the failure.
    for (std::size_t i = 0; i < minimal.size(); ++i) {
        std::vector<MemRef> sub = minimal;
        sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_FALSE(fails(sub)) << "redundant reference " << i;
    }

    // Archive as a seed file and read it back.
    const std::string path = testTempPath("planted_mutation.seed");
    const ReplaySeed seed = makeSeed(fc.diff, minimal);
    writeSeedFile(path, seed);
    const ReplaySeed back = readSeedFile(path);
    EXPECT_EQ(back.numProcs, seed.numProcs);
    EXPECT_EQ(back.numModules, seed.numModules);
    EXPECT_EQ(back.sets, seed.sets);
    EXPECT_EQ(back.ways, seed.ways);
    EXPECT_EQ(back.protocols, seed.protocols);
    ASSERT_EQ(back.trace.size(), minimal.size());
    for (std::size_t i = 0; i < minimal.size(); ++i)
        EXPECT_EQ(back.trace[i], minimal[i]);

    // The replayed seed still reproduces the failure against the
    // broken scheme...
    DiffConfig replayCfg = fc.diff;
    EXPECT_TRUE(
        diffTrace(replayCfg, back.trace, lossyMaker()).has_value());
    // ...and is clean against the real schemes (the bug is in the
    // mutant, not the trace).
    EXPECT_FALSE(replaySeed(back).has_value());
}

TEST(SeedFile, DefaultSchemeListRoundTrips)
{
    // An empty scheme list ("check everything") must survive the
    // file format via the explicit `protocols default` sentinel.
    ReplaySeed seed;
    seed.numProcs = 4;
    seed.trace = {{0, 1, true}, {3, 1, false}};
    const std::string path = testTempPath("default_protocols.seed");
    writeSeedFile(path, seed);
    const ReplaySeed back = readSeedFile(path);
    EXPECT_TRUE(back.protocols.empty());
    EXPECT_EQ(back.numProcs, 4u);
    ASSERT_EQ(back.trace.size(), 2u);
    EXPECT_EQ(back.trace[1], seed.trace[1]);
}

// ---------------------------------------------------------------------
// ddmin in isolation.

MemRef
ref(ProcId p, Addr a, bool w)
{
    return {p, a, w};
}

TEST(Shrink, KeepsExactlyTheFailureCore)
{
    // Fails iff the trace contains both the write and the read of
    // block 42, in that order.
    const auto fails = [](const std::vector<MemRef> &t) {
        bool wrote = false;
        for (const MemRef &r : t) {
            if (r.addr == 42 && r.write)
                wrote = true;
            if (r.addr == 42 && !r.write && wrote)
                return true;
        }
        return false;
    };

    std::vector<MemRef> noisy;
    for (Addr a = 0; a < 20; ++a)
        noisy.push_back(ref(0, a, false));
    noisy.push_back(ref(1, 42, true));
    for (Addr a = 20; a < 40; ++a)
        noisy.push_back(ref(2, a, true));
    noisy.push_back(ref(0, 42, false));
    for (Addr a = 40; a < 50; ++a)
        noisy.push_back(ref(1, a, false));

    const auto minimal = shrinkTrace(noisy, fails);
    ASSERT_EQ(minimal.size(), 2u);
    EXPECT_EQ(minimal[0], ref(1, 42, true));
    EXPECT_EQ(minimal[1], ref(0, 42, false));
}

TEST(Shrink, AlreadyMinimalIsUntouched)
{
    const std::vector<MemRef> t = {ref(0, 1, true)};
    const auto fails = [](const std::vector<MemRef> &x) {
        return !x.empty();
    };
    const auto minimal = shrinkTrace(t, fails);
    ASSERT_EQ(minimal.size(), 1u);
    EXPECT_EQ(minimal[0], t[0]);
}

TEST(Shrink, BudgetBoundsAttempts)
{
    std::vector<MemRef> big;
    for (Addr a = 0; a < 400; ++a)
        big.push_back(ref(0, a, false));
    const auto fails = [](const std::vector<MemRef> &t) {
        // Only the full prefix structure fails: every element matters.
        return t.size() >= 2 && t.front().addr == 0;
    };
    ShrinkStats stats;
    const auto minimal = shrinkTrace(big, fails, 25, &stats);
    EXPECT_LE(stats.attempts, 25u);
    EXPECT_TRUE(fails(minimal));
}

TEST(Shrink, ResultIsOneMinimalOnParityPredicate)
{
    // Fails iff it contains an even number (>= 2) of writes; many
    // subsets fail, so this stresses the fixpoint loop.
    const auto fails = [](const std::vector<MemRef> &t) {
        std::size_t w = 0;
        for (const MemRef &r : t)
            w += r.write;
        return w >= 2 && w % 2 == 0;
    };
    std::vector<MemRef> t;
    for (Addr a = 0; a < 30; ++a)
        t.push_back(ref(0, a, a % 3 != 2));
    ASSERT_TRUE(fails(t));
    const auto minimal = shrinkTrace(t, fails);
    EXPECT_TRUE(fails(minimal));
    for (std::size_t i = 0; i < minimal.size(); ++i) {
        std::vector<MemRef> sub = minimal;
        sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_FALSE(fails(sub)) << i;
    }
}

} // namespace
} // namespace dir2b
