/**
 * @file
 * E4 + E5: the two §4.4 enhancements, measured.
 *
 * (a) Parallel cache controller (duplicate tag directory): broadcasts
 *     that miss in the duplicate steal no processor cycle, so the
 *     stolen-cycle count drops to the *useful* deliveries only —
 *     "from the viewpoint of the cache this is equivalent to the
 *     distributed full map scheme" — while network traffic is
 *     unchanged (the paper's stated limitation).
 *
 * (b) Translation buffer: sweeping its capacity trades hardware for a
 *     hit ratio H; the fraction of broadcast overhead eliminated
 *     should track H ("if a 90% hit ratio ... could be maintained,
 *     90% of the added overhead resulting from the broadcasts is
 *     eliminated").  We print capacity, measured H, remaining useless
 *     commands, and the elimination fraction vs. H.
 *
 * Plus the Present1 ablation (§3.2.1).  All sixteen simulation runs
 * across the three experiments are independent, fixed-seed cells and
 * dispatch through one sweep pool before anything is printed.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/two_bit_protocol.hh"
#include "core/two_bit_tb_protocol.hh"
#include "proto/protocol_factory.hh"
#include "report/bench_cli.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "util/parallel.hh"

namespace
{

using namespace dir2b;

constexpr ProcId kProcs = 16;

SyntheticConfig
workload(ProcId n)
{
    SyntheticConfig scfg;
    scfg.numProcs = n;
    scfg.q = 0.05;
    scfg.w = 0.3;
    scfg.sharedBlocks = 64; // enough blocks that a small TB thrashes
    scfg.privateBlocks = 96;
    scfg.hotBlocks = 24;
    scfg.seed = 7;
    return scfg;
}

ProtoConfig
system(ProcId n)
{
    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;
    return cfg;
}

/** Everything one run contributes to the tables and the artifact. */
struct RunCell
{
    AccessCounts counts;
    double tbHitRatio = 0.0;
};

RunCell
runProto(Protocol &proto, const SyntheticConfig &scfg,
         std::uint64_t refs)
{
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = refs;
    runFunctional(proto, stream, opts);
    RunCell cell;
    cell.counts = proto.counts();
    return cell;
}

struct Present1Case
{
    const char *name;
    double q;
    double w;
};

const Present1Case kP1Cases[] = {{"low", 0.01, 0.2},
                                 {"moderate", 0.05, 0.2},
                                 {"high", 0.10, 0.4}};
const std::size_t kTbCaps[] = {2u, 4u, 8u, 16u, 32u, 64u, 256u};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E4 + E5: the Sec. 4.4 enhancements and the Present1 "
        "ablation");
    const WallTimer timer;
    const std::uint64_t refs = bo.scaleRefs(200000);

    constexpr std::size_t numCaps = std::size(kTbCaps);
    constexpr std::size_t numP1 = std::size(kP1Cases);

    // Slots: [0..1] snoop filter off/on; [2] TB baseline;
    // [3..3+numCaps) TB sweep; then the Present1 grid.
    std::vector<RunCell> cells(3 + numCaps + numP1 * 2);
    std::vector<std::function<RunCell()>> tasks;
    tasks.reserve(cells.size());

    for (bool filter : {false, true}) {
        tasks.push_back([filter, refs] {
            ProtoConfig cfg = system(kProcs);
            cfg.snoopFilter = filter;
            TwoBitProtocol proto(cfg);
            return runProto(proto, workload(kProcs), refs);
        });
    }
    tasks.push_back([refs] {
        TwoBitProtocol proto(system(kProcs));
        return runProto(proto, workload(kProcs), refs);
    });
    for (std::size_t cap : kTbCaps) {
        tasks.push_back([cap, refs] {
            ProtoConfig cfg = system(kProcs);
            cfg.tbCapacity = cap;
            TwoBitTbProtocol proto(cfg);
            RunCell cell = runProto(proto, workload(kProcs), refs);
            cell.tbHitRatio = proto.tbHitRatio();
            return cell;
        });
    }
    for (const auto &c : kP1Cases) {
        for (const char *variant : {"two_bit", "two_bit_nop1"}) {
            tasks.push_back([&c, variant, refs] {
                auto proto = makeProtocol(variant, system(kProcs));
                SyntheticConfig scfg = workload(kProcs);
                scfg.q = c.q;
                scfg.w = c.w;
                return runProto(*proto, scfg, refs);
            });
        }
    }

    parallelFor(
        0, tasks.size(), [&](std::size_t i) { cells[i] = tasks[i](); },
        bo.threads);

    // --- E5: duplicate cache directory ---
    std::printf("E5 — enhancement (a): duplicate cache directory "
                "(parallel controller)\n");
    std::printf("moderate sharing, n=%u, %llu refs\n\n", kProcs,
                static_cast<unsigned long long>(refs));
    std::printf("%-22s %14s %14s %14s\n", "config", "stolen cycles",
                "filtered", "net messages");
    for (int i = 0; i < 2; ++i) {
        const auto &c = cells[static_cast<std::size_t>(i)].counts;
        std::printf("%-22s %14llu %14llu %14llu\n",
                    i ? "with duplicate dir" : "plain two-bit",
                    static_cast<unsigned long long>(c.stolenCycles),
                    static_cast<unsigned long long>(c.filteredCmds),
                    static_cast<unsigned long long>(c.netMessages));
    }
    std::printf("\nWith the duplicate directory the cache only loses a "
                "cycle when the\nbroadcast block is actually present; "
                "network traffic is unchanged\n(the limitation the "
                "paper notes for this enhancement).\n\n");

    // --- E4: translation buffer sweep ---
    const RunCell &base = cells[2];
    const double baseline = static_cast<double>(base.counts.uselessCmds);
    std::printf("E4 — enhancement (b): translation buffer sweep "
                "(n=%u, %llu refs)\n\n",
                kProcs, static_cast<unsigned long long>(refs));
    std::printf("%-12s %10s %16s %18s %12s\n", "TB capacity",
                "hit ratio", "useless cmds", "eliminated frac",
                "broadcasts");
    std::printf("%-12s %10s %16.0f %18s %12llu\n", "none (base)", "-",
                baseline, "-",
                static_cast<unsigned long long>(base.counts.broadcasts));
    std::vector<double> eliminated(numCaps);
    for (std::size_t k = 0; k < numCaps; ++k) {
        const RunCell &cell = cells[3 + k];
        const double useless =
            static_cast<double>(cell.counts.uselessCmds);
        eliminated[k] = baseline > 0 ? 1.0 - useless / baseline : 0.0;
        std::printf("%-12zu %10.3f %16.0f %18.3f %12llu\n", kTbCaps[k],
                    cell.tbHitRatio, useless, eliminated[k],
                    static_cast<unsigned long long>(
                        cell.counts.broadcasts));
    }
    std::printf(
        "\nThe elimination fraction tracks the buffer hit ratio: at "
        "H~0.9 about\n90%% of the broadcast overhead disappears, and "
        "with a large enough\nbuffer the scheme approaches the full "
        "map (the paper's limiting claim).\n");

    // --- Present1 ablation ---
    std::printf("\nAblation — the value of the Present1 encoding "
                "(n=%u, %llu refs)\n\n",
                kProcs, static_cast<unsigned long long>(refs));
    std::printf("%-12s %-14s %12s %12s %14s\n", "sharing",
                "variant", "broadcasts", "useless", "mrequests");
    const std::size_t p1Base = 3 + numCaps;
    for (std::size_t ci = 0; ci < numP1; ++ci) {
        for (int vi = 0; vi < 2; ++vi) {
            const auto &c = cells[p1Base + ci * 2 +
                                  static_cast<std::size_t>(vi)].counts;
            std::printf("%-12s %-14s %12llu %12llu %14llu\n",
                        kP1Cases[ci].name,
                        vi ? "two_bit_nop1" : "two_bit",
                        static_cast<unsigned long long>(c.broadcasts),
                        static_cast<unsigned long long>(c.uselessCmds),
                        static_cast<unsigned long long>(c.mrequests));
        }
    }
    std::printf("\nWithout Present1, every first write to a "
                "once-read block needs a\nbroadcast (no free "
                "MGRANTED), and clean ejections can never reclaim\n"
                "Absent — both broadcast counts rise, vindicating the "
                "fourth state.\n");

    // --- artifact ---
    Json params = Json::object();
    params.set("n", kProcs);
    params.set("refs", static_cast<unsigned long long>(refs));
    Json jcells = Json::array();
    for (int i = 0; i < 2; ++i) {
        Json c = Json::object();
        c.set("section", "duplicate_dir");
        c.set("snoopFilter", i == 1);
        c.set("counts",
              countsToJson(cells[static_cast<std::size_t>(i)].counts));
        jcells.push(std::move(c));
    }
    {
        Json c = Json::object();
        c.set("section", "tb_sweep");
        c.set("tbCapacity", 0);
        c.set("counts", countsToJson(base.counts));
        jcells.push(std::move(c));
    }
    for (std::size_t k = 0; k < numCaps; ++k) {
        Json c = Json::object();
        c.set("section", "tb_sweep");
        c.set("tbCapacity",
              static_cast<unsigned long long>(kTbCaps[k]));
        c.set("tbHitRatio", cells[3 + k].tbHitRatio);
        c.set("eliminatedFraction", eliminated[k]);
        c.set("counts", countsToJson(cells[3 + k].counts));
        jcells.push(std::move(c));
    }
    for (std::size_t ci = 0; ci < numP1; ++ci) {
        for (int vi = 0; vi < 2; ++vi) {
            Json c = Json::object();
            c.set("section", "present1_ablation");
            c.set("case", kP1Cases[ci].name);
            c.set("q", kP1Cases[ci].q);
            c.set("w", kP1Cases[ci].w);
            c.set("variant", vi ? "two_bit_nop1" : "two_bit");
            c.set("counts",
                  countsToJson(
                      cells[p1Base + ci * 2 +
                            static_cast<std::size_t>(vi)].counts));
            jcells.push(std::move(c));
        }
    }
    emitArtifact(bo, "bench_enhancements", std::move(params),
                 std::move(jcells), Json(), timer);
    return 0;
}
