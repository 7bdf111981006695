/**
 * @file
 * E6: the §4.3 acceptability thresholds.
 *
 * The paper reads Table 4-1 through the rule of thumb that the scheme
 * remains acceptable while each cache receives less than one extra
 * command per own memory request ((n-1) T_SUM < 1.0, most of which
 * hides in the cache's idle cycles).  This bench sweeps n for each
 * sharing case with both the closed form and live simulation, and
 * reports the largest acceptable configuration — reproducing the
 * paper's conclusions: ~64 processors at low sharing, ~16 at moderate,
 * ~8 at high/write-intensive sharing.
 *
 * The (case x n) simulation grid — the expensive part — dispatches
 * through the sweep pool; model and network cells are closed-form.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "model/overhead_model.hh"
#include "model/traffic_model.hh"
#include "proto/protocol_factory.hh"
#include "report/bench_cli.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "util/parallel.hh"

namespace
{

using namespace dir2b;

const SharingLevel kLevels[3] = {SharingLevel::Low,
                                 SharingLevel::Moderate,
                                 SharingLevel::High};
const unsigned kNs[6] = {2u, 4u, 8u, 16u, 32u, 64u};

double
simulatedOverhead(SharingLevel level, ProcId n, double w,
                  std::uint64_t refs)
{
    const SharingParams sp = sharingCase(level, n, w);

    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.numModules = 4;

    SyntheticConfig scfg;
    scfg.numProcs = n;
    scfg.q = sp.q;
    scfg.w = w;
    scfg.sharedBlocks = 16;
    scfg.privateBlocks = 96;
    scfg.hotBlocks = 24;
    // Locality tuned per case so the measured shared hit ratio lands
    // near the h each Sec. 4.3 case assumes (same values as E3).
    scfg.sharedLocality = level == SharingLevel::Low      ? 0.97
                          : level == SharingLevel::Moderate ? 0.93
                                                            : 0.85;
    scfg.seed = 99;

    auto proto = makeProtocol("two_bit", cfg);
    SyntheticStream stream(scfg);
    RunOptions opts;
    opts.numRefs = refs;
    const RunResult r = runFunctional(*proto, stream, opts);
    return r.perCacheUselessPerRef;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E6: Sec. 4.3 acceptability thresholds, model vs. simulation, "
        "plus network saturation");
    const WallTimer timer;
    constexpr double w = 0.2;
    const std::uint64_t refs = bo.scaleRefs(120000);

    // Model and simulation overheads for every (case, n) cell; the
    // simulations carry the cost, so they go through the pool.
    double model[3][6];
    double sim[3][6];
    for (int li = 0; li < 3; ++li)
        for (int ni = 0; ni < 6; ++ni)
            model[li][ni] =
                overhead(sharingCase(kLevels[li], kNs[ni], w)).perCache;
    parallelFor(
        0, 18,
        [&](std::size_t i) {
            sim[i / 6][i % 6] = simulatedOverhead(
                kLevels[i / 6], kNs[i % 6], w, refs);
        },
        bo.threads);

    std::printf(
        "E6: acceptability thresholds — per-cache extra commands per\n"
        "reference, (n-1)*T_SUM, w=%.1f; acceptable while < 1.0 "
        "(Sec. 4.3)\n\n",
        w);
    std::printf("%-10s", "n");
    for (unsigned n : kNs)
        std::printf(" %9u", n);
    std::printf("\n");

    for (int li = 0; li < 3; ++li) {
        const auto level = kLevels[li];
        std::printf("%-10s", toString(level).substr(0, 8).c_str());
        unsigned maxOk = 0;
        for (int ni = 0; ni < 6; ++ni) {
            std::printf(" %9.3f", model[li][ni]);
            if (model[li][ni] < 1.0)
                maxOk = kNs[ni];
        }
        std::printf("   acceptable to n=%u (model)\n", maxOk);

        std::printf("%-10s", "  (sim)");
        unsigned simOk = 0;
        for (int ni = 0; ni < 6; ++ni) {
            std::printf(" %9.3f", sim[li][ni]);
            if (sim[li][ni] < 1.0)
                simOk = kNs[ni];
        }
        std::printf("   acceptable to n=%u (sim)\n", simOk);
    }

    std::printf(
        "\nPaper's reading (Sec. 4.3): low sharing acceptable up to 64\n"
        "processors, moderate up to 16, high/write-intensive only to 8\n"
        "or fewer.  The rows above reproduce those boundaries; the\n"
        "simulation rows use measured workloads, so the crossover\n"
        "points (not the absolute cell values) are the comparison.\n");

    // The paper's future work ("the effect of the broadcasts on
    // traffic in the interconnection network ... will be investigated
    // in future studies"): an M/M/1 port model of the module network.
    double util[3][3];
    unsigned satN[3];
    for (int li = 0; li < 3; ++li) {
        for (int ni = 0; ni < 3; ++ni) {
            TrafficParams tp;
            tp.sharing =
                sharingCase(kLevels[li], kNs[ni + 2], w); // 8/16/32
            util[li][ni] = networkLoad(tp).utilisation;
        }
        TrafficParams sweep;
        sweep.sharing = sharingCase(kLevels[li], 8, w);
        satN[li] = saturationProcessorCount(sweep);
    }

    std::printf("\nNetwork saturation (M/M/1 port model, 4 modules, "
                "w=%.1f):\n", w);
    std::printf("%-10s %28s %22s\n", "",
                "port utilisation at n=8/16/32",
                "saturates beyond n=");
    for (int li = 0; li < 3; ++li) {
        std::printf("%-10s ",
                    toString(kLevels[li]).substr(0, 8).c_str());
        for (int ni = 0; ni < 3; ++ni)
            std::printf("%8.2f", util[li][ni]);
        std::printf("   %18u\n", satN[li]);
    }
    std::printf("\nThe broadcast share of the load is what separates "
                "the rows: the\nnetwork, not the stolen cache cycles, "
                "becomes the binding constraint\nfirst at high "
                "sharing — quantifying the concern Sec. 4.3 could "
                "only\nstate qualitatively.\n");

    Json params = Json::object();
    params.set("w", w);
    params.set("refs", static_cast<unsigned long long>(refs));
    params.set("modules", 4);
    Json cells = Json::array();
    for (int li = 0; li < 3; ++li) {
        for (int ni = 0; ni < 6; ++ni) {
            Json c = Json::object();
            c.set("section", "threshold");
            c.set("case", toString(kLevels[li]));
            c.set("n", kNs[ni]);
            c.set("modelOverhead", model[li][ni]);
            c.set("simOverhead", sim[li][ni]);
            cells.push(std::move(c));
        }
        Json net = Json::object();
        net.set("section", "network");
        net.set("case", toString(kLevels[li]));
        Json u = Json::object();
        u.set("n8", util[li][0]);
        u.set("n16", util[li][1]);
        u.set("n32", util[li][2]);
        net.set("portUtilisation", std::move(u));
        net.set("saturatesBeyondN", satN[li]);
        cells.push(std::move(net));
    }
    emitArtifact(bo, "bench_scaling", std::move(params),
                 std::move(cells), Json(), timer);
    return 0;
}
