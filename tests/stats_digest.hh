/**
 * @file
 * FNV-1a statistics digests shared by the determinism tests.
 *
 * digestStats folds a timed run's integer statistics (its result and
 * every cache's and controller's counters) into one value; the seven
 * timed golden digests are pinned in this form, and the replay tests
 * must reproduce them.  Only integers are folded, so a digest is
 * stable across platforms and optimisation levels.
 */

#ifndef DIR2B_TESTS_STATS_DIGEST_HH
#define DIR2B_TESTS_STATS_DIGEST_HH

#include <cstdint>

#include "timed/timed_system.hh"

namespace dir2b
{

/** FNV-1a over the eight bytes of x. */
inline std::uint64_t
fold(std::uint64_t h, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The pinned statistics digest of a timed run. */
inline std::uint64_t
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

} // namespace dir2b

#endif // DIR2B_TESTS_STATS_DIGEST_HH
