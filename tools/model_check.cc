/**
 * @file
 * Command-line driver for the two checking engines.
 *
 *   model_check [--quick] [--seeds N] [--refs N] [--no-timed]
 *               [--no-fuzz] [--protocol NAME] [--threads N]
 *               [--json OUT]
 *
 * Runs the exhaustive explorer over the default small-configuration
 * grid (every factory protocol plus the no-Present1 ablation at 2
 * caches x 1-2 blocks, including a direct-mapped replacement-pressure
 * cell) and a differential fuzz campaign, then writes a dir2b.check
 * JSON artifact and exits 0 iff no violation was found.  Both engines
 * dispatch through the shared worker pool; the artifact payload is
 * identical at any --threads value.
 *
 * --protocol restricts the grid to one scheme and --no-fuzz skips the
 * fuzz campaign; together they generate the committed per-protocol
 * model-check fixtures (tests/fixtures/moesi.check).  Table-driven
 * schemes additionally get row-coverage accounting: a row no grid cell
 * fires is reported dead and fails the run.
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check/check_report.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "util/parallel.hh"
#include "util/parse_args.hh"

int
main(int argc, char **argv)
{
    using namespace dir2b;

    bool quick = false;
    bool noTimed = false;
    bool noFuzz = false;
    std::uint64_t seeds = 0;
    std::uint64_t refs = 4000;
    unsigned threads = 0;
    std::string jsonPath;
    std::string onlyProtocol;

    parseArgs(
        argc, argv,
        {"[options]",
         "Exhaustive small-configuration model check plus a "
         "differential fuzz campaign (see docs/CHECKING.md).",
         {
             {"--quick", arg::on(quick),
              "smaller fuzz campaign (CI smoke budget)"},
             {"--seeds", arg::count(seeds),
              "fuzz campaign size (default 16, quick 4)"},
             {"--refs", arg::count(refs),
              "references per fuzz seed (default 4000)"},
             {"--no-timed", arg::on(noTimed),
              "skip the timed-tier lockstep run"},
             {"--no-fuzz", arg::on(noFuzz),
              "explorer only (fixture generation)"},
             {"--protocol", arg::text(onlyProtocol, "NAME"),
              "restrict the grid to one scheme"},
             {"--threads", arg::count(threads, 1),
              "worker pool width (default: all cores)"},
             {"--json", arg::text(jsonPath, "OUT"),
              "write the dir2b.check artifact to OUT"},
         }});
    const bool withTimed = !noTimed;
    const bool withFuzz = !noFuzz;
    if (seeds == 0)
        seeds = quick ? 4 : 16;
    if (threads)
        setDefaultThreadCount(threads);

    const auto t0 = std::chrono::steady_clock::now();

    auto grid = defaultExplorerGrid();
    if (!onlyProtocol.empty()) {
        std::vector<ExplorerConfig> kept;
        for (const auto &c : grid)
            if (c.protocol == onlyProtocol)
                kept.push_back(c);
        if (kept.empty()) {
            std::fprintf(stderr,
                         "model_check: no grid cell for protocol "
                         "'%s'\n", onlyProtocol.c_str());
            return 1;
        }
        grid = std::move(kept);
    }
    std::printf("model_check: exploring %zu cells...\n", grid.size());
    const auto explored = exploreGrid(grid);

    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t violations = 0;
    // Row coverage per table protocol, unioned over its grid cells
    // (evict rows need the replacement-pressure cell to fire).
    std::map<std::string, std::vector<std::uint64_t>> coverage;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        states += explored[i].statesVisited;
        transitions += explored[i].transitionsChecked;
        violations += explored[i].violations.size();
        if (!explored[i].violations.empty()) {
            std::printf("  VIOLATION %s (%u procs, %zu blocks): %s\n",
                        grid[i].protocol.c_str(), grid[i].numProcs,
                        grid[i].numBlocks,
                        explored[i].violations.front().detail.c_str());
            for (const auto &a : explored[i].trail)
                std::printf("    %s\n", toString(a).c_str());
        }
        if (explored[i].totalRows > 0) {
            auto &fired = coverage[grid[i].protocol];
            fired.resize(explored[i].totalRows, 0);
            for (std::size_t r = 0; r < explored[i].totalRows; ++r)
                fired[r] += explored[i].rowsFired[r];
        }
    }
    std::printf("model_check: %llu states, %llu transitions, "
                "%llu violation(s)\n",
                static_cast<unsigned long long>(states),
                static_cast<unsigned long long>(transitions),
                static_cast<unsigned long long>(violations));

    std::uint64_t deadRows = 0;
    for (const auto &[name, fired] : coverage) {
        std::uint64_t dead = 0;
        for (std::size_t r = 0; r < fired.size(); ++r)
            if (fired[r] == 0)
                ++dead;
        deadRows += dead;
        std::printf("model_check: %s row coverage %zu/%zu\n",
                    name.c_str(), fired.size() - dead, fired.size());
        if (dead == 0)
            continue;
        ProtoConfig pc;
        pc.numProcs = 2;
        const auto proto = makeProtocol(name, pc);
        const auto &table =
            dynamic_cast<const TableProtocol &>(*proto).table();
        for (std::size_t r = 0; r < fired.size(); ++r)
            if (fired[r] == 0)
                std::printf("  DEAD ROW %s\n",
                            describeRow(table, r).c_str());
    }

    FuzzResult fuzzed;
    FuzzConfig fc;
    fc.numSeeds = seeds;
    fc.refsPerSeed = refs;
    fc.diff.withTimed = withTimed;
    if (withFuzz) {
        std::printf("model_check: fuzzing %llu seeds x %llu refs "
                    "(%zu schemes%s)...\n",
                    static_cast<unsigned long long>(fc.numSeeds),
                    static_cast<unsigned long long>(fc.refsPerSeed),
                    functionalCheckProtocols().size(),
                    withTimed ? " + timed tier" : "");
        fuzzed = fuzzMany(fc);
        for (const auto &f : fuzzed.failures) {
            std::printf(
                "  FAILURE seed %llu [%s] at step %zu (%s): %s\n",
                static_cast<unsigned long long>(f.seedIndex),
                f.failure.protocol.c_str(), f.failure.step,
                f.failure.kind.c_str(), f.failure.detail.c_str());
        }
        std::printf(
            "model_check: %llu fuzz failure(s)\n",
            static_cast<unsigned long long>(fuzzed.failures.size()));
    }

    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0).count();

    if (!jsonPath.empty()) {
        Json artifact = makeEngineArtifact(
            "model_check", grid, explored, withFuzz ? &fc : nullptr,
            withFuzz ? &fuzzed : nullptr);
        stampMeta(artifact, threads ? threads : defaultThreadCount(),
                  wallMs, quick);
        writeArtifact(jsonPath, artifact);
        std::printf("model_check: artifact written to %s\n",
                    jsonPath.c_str());
    }

    return violations == 0 && fuzzed.failures.empty() && deadRows == 0
               ? 0
               : 1;
}
