/**
 * @file
 * Cross-protocol differential fuzzing.
 *
 * Every functional scheme implements the same contract — a read
 * returns the most recently written value, and identical reference
 * streams force identical final memory images (write values are the
 * same deterministic nonce sequence in every scheme).  The differ
 * exploits that: it drives one seeded random trace through every
 * scheme in lockstep, checks each read against the last-writer
 * oracle, runs the structural invariant suite periodically, and at
 * the end cross-checks the per-block final images between schemes
 * and against the oracle.  Optionally the same trace also runs
 * through the timed two-bit tier (per-processor program order
 * preserved); blocks written by a single processor must then reach
 * the same final value there too, and the timed tier's own
 * per-location oracle validates the rest.
 *
 * Failures come back as data (DiffFailure), never aborts, so the
 * shrinker (check/shrink.hh) can minimize the trace and write a
 * replayable seed file (check/seedfile.hh).
 *
 * Batches of seeds dispatch through the shared worker pool with the
 * deterministic per-task RNG split, so a fuzz campaign's verdict is
 * independent of the thread count.
 */

#ifndef DIR2B_CHECK_DIFFER_HH
#define DIR2B_CHECK_DIFFER_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/seedfile.hh"
#include "proto/protocol.hh"
#include "trace/reference.hh"

namespace dir2b
{

/** Scheme constructor hook; tests inject deliberately broken
 *  protocols through it.  Defaults to makeProtocol(). */
using ProtocolMaker = std::function<std::unique_ptr<Protocol>(
    const std::string &, const ProtoConfig &)>;

/** Knobs of one differential replay. */
struct DiffConfig
{
    /** Schemes to cross-check; empty = functionalCheckProtocols(). */
    std::vector<std::string> protocols;
    ProcId numProcs = 3;
    ModuleId numModules = 2;
    std::size_t sets = 4;
    std::size_t ways = 2;
    /** Run the structural invariant suite every N references
     *  (0 = only at the end). */
    std::uint64_t structuralEvery = 64;
    /** Also call each scheme's own (panicking) checkInvariants() and
     *  the holder-index cross-check (CacheBank::checkIndex); disable
     *  when replaying a known-broken scheme so the failure reaches the
     *  shrinker instead of aborting. */
    bool nativeInvariants = true;
    /** Drive the timed two-bit tier with the same trace. */
    bool withTimed = false;
};

/** One cross-check failure, as data. */
struct DiffFailure
{
    /** Scheme that diverged ("timed_two_bit" for the timed tier). */
    std::string protocol;
    /** Violation class (see check/invariants.hh) or "final-image" /
     *  "timed-final" / "timed-incomplete". */
    std::string kind;
    /** Trace index at which the failure surfaced (trace size for
     *  end-of-run checks). */
    std::size_t step = 0;
    std::string detail;
};

/** The scheme list the fuzzer cross-checks by default: every factory
 *  protocol plus the no-Present1 ablation. */
std::vector<std::string> functionalCheckProtocols();

/** Replay one trace through every scheme; first failure or nullopt. */
std::optional<DiffFailure>
diffTrace(const DiffConfig &cfg, const std::vector<MemRef> &trace,
          const ProtocolMaker &maker = {});

/** Package a failing configuration+trace as a replayable seed. */
ReplaySeed makeSeed(const DiffConfig &cfg,
                    const std::vector<MemRef> &trace);

/** Re-run the differential check a seed file describes. */
std::optional<DiffFailure> replaySeed(const ReplaySeed &seed,
                                      bool withTimed = false);

/** Knobs of a fuzz campaign. */
struct FuzzConfig
{
    DiffConfig diff;
    /** Independent random traces to generate and cross-check. */
    std::uint64_t numSeeds = 8;
    std::uint64_t refsPerSeed = 2000;
    /** Campaign seed; per-trace streams derive via taskRng(). */
    std::uint64_t baseSeed = 2024;
    /** Synthetic stream shape (deliberately contended). */
    double q = 0.35;
    double w = 0.4;
    std::size_t sharedBlocks = 6;
    std::size_t privateBlocks = 12;
    std::size_t hotBlocks = 4;
    /** SyntheticConfig::spaceBlocks: scatter the blocks over this many
     *  (0 = the compact layout). */
    std::uint64_t spaceBlocks = 0;
};

/** One failing seed of a campaign, with its trace for shrinking. */
struct FuzzFailure
{
    std::uint64_t seedIndex = 0;
    DiffFailure failure;
    std::vector<MemRef> trace;
};

/** Campaign outcome. */
struct FuzzResult
{
    std::uint64_t seedsRun = 0;
    std::uint64_t refsReplayed = 0;
    std::vector<FuzzFailure> failures;
};

/** Generate the trace of campaign task `index` (deterministic). */
std::vector<MemRef> fuzzTrace(const FuzzConfig &cfg,
                              std::uint64_t index);

/** Run a campaign on the shared pool; verdicts are independent of
 *  the thread count. */
FuzzResult fuzzMany(const FuzzConfig &cfg, unsigned threads = 0,
                    const ProtocolMaker &maker = {});

/**
 * Cross-interpreter lockstep: a hand-written scheme and its
 * table-driven re-expression replay one trace side by side and must
 * agree on strictly more than the differ checks — the return value of
 * every access, every per-access counter delta field by field, the
 * cumulative counters, the per-processor received-command counters,
 * every cache line (tag, state, value), and the final per-block
 * images.  This is the contract that lets a transition table replace
 * a hand-written protocol.
 */
struct LockstepConfig
{
    /** Hand-written scheme (the semantics of record). */
    std::string reference = "two_bit";
    /** Table-driven re-expression under test. */
    std::string subject = "two_bit_table";
    ProcId numProcs = 3;
    ModuleId numModules = 2;
    std::size_t sets = 4;
    std::size_t ways = 2;
    /** Flush a rotating processor's cache every N references
     *  (0 = never); drives the table's evict rows against the
     *  hand-written flushCache path. */
    std::uint64_t flushEvery = 0;
    /** ProtoConfig::dirRamBudget of both schemes (0 = unlimited). */
    std::uint64_t dirRamBudget = 0;
};

/** The (reference, subject) pairs held bit-identical by construction:
 *  {two_bit, two_bit_table}.  The full map has one implementation,
 *  the table, so it has no pair. */
std::vector<std::pair<std::string, std::string>> lockstepPairs();

/** Replay one trace through both interpreters; first divergence or
 *  nullopt.  DiffFailure::protocol names the subject. */
std::optional<DiffFailure>
lockstepTrace(const LockstepConfig &cfg,
              const std::vector<MemRef> &trace);

/** Campaign: every lockstep pair over the fuzz traces of `cfg`, with
 *  and without periodic flushes, and with the trace scattered over
 *  2^20 blocks under a 2 KiB directory budget, so directory pages
 *  cycle through every tier.  First divergence or nullopt. */
std::optional<DiffFailure>
lockstepFuzz(const FuzzConfig &cfg, unsigned threads = 0);

} // namespace dir2b

#endif // DIR2B_CHECK_DIFFER_HH
