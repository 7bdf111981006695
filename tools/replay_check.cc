/**
 * @file
 * Re-run the differential check a fuzzer seed file describes.
 *
 *   replay_check SEEDFILE [--timed] [--expect-fail] [--json OUT]
 *
 * Loads the seed (configuration + minimized trace, see
 * docs/CHECKING.md), replays it through the recorded scheme list with
 * the full invariant suite, and reports the verdict.  Exit status is
 * 0 when the observed verdict matches the expectation: pass by
 * default, fail with --expect-fail (the mode used when archiving a
 * counterexample for a known bug).  With --json the verdict is also
 * written as a one-cell dir2b.check artifact.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "check/differ.hh"
#include "report/report.hh"
#include "util/parallel.hh"
#include "util/parse_args.hh"

int
main(int argc, char **argv)
{
    using namespace dir2b;

    std::string jsonPath;
    bool withTimed = false;
    bool expectFail = false;

    const ParsedArgs args = parseArgs(
        argc, argv,
        {"SEEDFILE [options]",
         "Replay a dir2b fuzzer seed file (see docs/CHECKING.md).",
         {
             {"--timed", arg::on(withTimed),
              "also drive the timed two-bit tier"},
             {"--expect-fail", arg::on(expectFail),
              "exit 0 only if the replay DOES fail"},
             {"--json", arg::text(jsonPath, "OUT"),
              "write the verdict as a dir2b.check artifact"},
         },
         {{"", "SEEDFILE"}}});
    const std::string &seedPath = args.operands.front();

    const auto t0 = std::chrono::steady_clock::now();
    const ReplaySeed seed = readSeedFile(seedPath);
    const auto verdict = replaySeed(seed, withTimed);
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();

    std::printf("replay_check: %s: %zu references, %zu scheme(s)\n",
                seedPath.c_str(), seed.trace.size(),
                seed.protocols.empty()
                    ? functionalCheckProtocols().size()
                    : seed.protocols.size());
    if (verdict) {
        std::printf("FAIL [%s] at step %zu (%s): %s\n",
                    verdict->protocol.c_str(), verdict->step,
                    verdict->kind.c_str(), verdict->detail.c_str());
    } else {
        std::printf("OK: all schemes agree on every read and on the "
                    "final memory image\n");
    }

    if (!jsonPath.empty()) {
        Json cell = Json::object();
        cell.set("section", "replay");
        cell.set("seed_file", seedPath);
        cell.set("refs",
                 static_cast<unsigned long long>(seed.trace.size()));
        cell.set("failed", verdict.has_value());
        if (verdict) {
            cell.set("protocol", verdict->protocol);
            cell.set("kind", verdict->kind);
            cell.set("step",
                     static_cast<unsigned long long>(verdict->step));
            cell.set("detail", verdict->detail);
        }
        Json cells = Json::array();
        cells.push(std::move(cell));
        Json summary = Json::object();
        summary.set("ok", verdict.has_value() == expectFail);
        Json artifact = makeCheckArtifact("replay_check", Json(),
                                          std::move(cells),
                                          std::move(summary));
        stampMeta(artifact, 1, wallMs, false);
        writeArtifact(jsonPath, artifact);
    }

    return verdict.has_value() == expectFail ? 0 : 1;
}
