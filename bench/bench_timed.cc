/**
 * @file
 * E8 + ablations: the timed (discrete-event) system of Figure 3-1.
 *
 * Three experiments the analytic tables cannot answer (the paper:
 * "Short of simulation, there are few alternatives to determine the
 * effects of this traffic"):
 *
 *  1. two-bit vs full-map (vs Yen-Fu) end-to-end: execution time,
 *     average memory latency, network messages and stolen cache cycles
 *     for identical workloads, with destination-port contention
 *     enabled so the broadcasts actually congest something;
 *  2. the §3.2.5 controller design options: strictly serial vs
 *     per-block-concurrent ("multiprogrammed") controllers;
 *  3. the §4.4(a) duplicate cache directory in real time;
 *  4. interconnection-network kinds (ideal/crossbar/bus).
 *
 * Every run executes under the per-location coherence oracle.  The
 * whole (section x axes) grid dispatches through the sweep pool and
 * exports one JSON cell per run, each carrying the request-latency
 * distribution (mean + p50/p95/p99 from the merged per-cache
 * histograms) alongside the scalar results.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "obs/telemetry.hh"
#include "report/bench_cli.hh"
#include "timed/timed_system.hh"
#include "trace/synthetic.hh"
#include "util/parallel.hh"

namespace
{

using namespace dir2b;

/** One grid cell's configuration. */
struct Spec
{
    const char *section;
    TimedProto proto;
    ProcId n;
    double q;
    bool perBlock;
    bool snoop;
    NetKind net;
};

/** One grid cell's outcome: scalars + the latency distribution. */
struct Cell
{
    TimedRunResult r;
    Json latency;
};

Cell
runCell(const Spec &s, std::uint64_t refsPerProc,
        std::uint64_t dirRamBudget, TelemetrySampler *sampler = nullptr)
{
    TimedConfig cfg;
    cfg.protocol = s.proto;
    cfg.numProcs = s.n;
    cfg.numModules = 4;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4;
    cfg.perBlockConcurrency = s.perBlock;
    cfg.snoopFilter = s.snoop;
    cfg.network = s.net;
    cfg.dirRamBudget = dirRamBudget;
    cfg.sampler = sampler;

    auto stream = std::make_shared<SyntheticStream>(
        timedSyntheticConfig(s.n, s.q, 31));
    auto src = [stream](ProcId p) -> std::optional<MemRef> {
        return stream->nextFor(p);
    };
    Cell c;
    TimedSystem sys(cfg);
    c.r = sys.run(src, refsPerProc);
    c.latency = histogramSummaryJson(
        sys.mergedCacheHistogram(&CacheCtrlStats::latency));
    return c;
}

constexpr ProcId kNs[3] = {4, 8, 16};
constexpr double kQs3[3] = {0.01, 0.05, 0.10};
constexpr double kQs2[2] = {0.05, 0.10};
constexpr TimedProto kProtos[3] = {TimedProto::TwoBit,
                                   TimedProto::FullMap,
                                   TimedProto::YenFu};
constexpr NetKind kNets[3] = {NetKind::Ideal, NetKind::Crossbar,
                              NetKind::Bus};

/** Grid layout: comparison 27, controller 12, snoop 4, network 6. */
constexpr std::size_t kComparisonBase = 0;   // proto*9 + n*3 + q
constexpr std::size_t kControllerBase = 27;  // mode*6 + n*2 + q
constexpr std::size_t kSnoopBase = 39;       // n*2 + snoop
constexpr std::size_t kNetworkBase = 43;     // net*2 + n(4/16)
constexpr std::size_t kCells = 49;

std::vector<Spec>
buildGrid()
{
    std::vector<Spec> grid;
    grid.reserve(kCells);
    for (TimedProto proto : kProtos)
        for (ProcId n : kNs)
            for (double q : kQs3)
                grid.push_back({"comparison", proto, n, q, true,
                                false, NetKind::Crossbar});
    for (bool perBlock : {false, true})
        for (ProcId n : kNs)
            for (double q : kQs2)
                grid.push_back({"controller", TimedProto::TwoBit, n, q,
                                perBlock, false, NetKind::Crossbar});
    for (ProcId n : {8u, 16u})
        for (bool snoop : {false, true})
            grid.push_back({"snoop", TimedProto::TwoBit, n, 0.10, true,
                            snoop, NetKind::Crossbar});
    for (NetKind net : kNets)
        for (ProcId n : {4u, 16u})
            grid.push_back({"network", TimedProto::TwoBit, n, 0.10,
                            true, false, net});
    return grid;
}

void
protocolComparison(const std::vector<Cell> &cells, std::uint64_t refs)
{
    auto at = [&](int pi, int ni, int qi) -> const TimedRunResult & {
        return cells[kComparisonBase +
                     static_cast<std::size_t>(pi * 9 + ni * 3 + qi)].r;
    };
    std::printf("1. two-bit vs full-map, end to end (port contention "
                "on, %llu refs/proc)\n\n",
                static_cast<unsigned long long>(refs));
    std::printf("%4s %8s | %10s %8s %10s %10s | %10s %8s %10s %10s\n",
                "n", "q", "2b cycles", "2b lat", "2b msgs",
                "2b stolen", "fm cycles", "fm lat", "fm msgs",
                "fm stolen");
    for (int ni = 0; ni < 3; ++ni) {
        for (int qi = 0; qi < 3; ++qi) {
            const auto &tb = at(0, ni, qi);
            const auto &fm = at(1, ni, qi);
            std::printf(
                "%4u %8.2f | %10llu %8.1f %10llu %10llu | %10llu %8.1f "
                "%10llu %10llu\n",
                kNs[ni], kQs3[qi],
                static_cast<unsigned long long>(tb.finalTick),
                tb.avgLatency,
                static_cast<unsigned long long>(tb.netMessages),
                static_cast<unsigned long long>(tb.stolenCycles),
                static_cast<unsigned long long>(fm.finalTick),
                fm.avgLatency,
                static_cast<unsigned long long>(fm.netMessages),
                static_cast<unsigned long long>(fm.stolenCycles));
        }
    }
    std::printf("\nThe message and stolen-cycle gaps grow with n and q "
                "— the same\ntrend Tables 4-1/4-2 predict analytically; "
                "execution time follows\nonce broadcasts queue at the "
                "destination ports.\n\n");

    std::printf("1b. Yen-Fu (full map + silent exclusive upgrades) on "
                "the same grid\n\n");
    std::printf("%4s %8s | %10s %10s %10s | %6s %6s %6s\n", "n", "q",
                "yf cycles", "yf msgs", "yf stolen", "p50", "p95",
                "p99");
    for (int ni = 0; ni < 3; ++ni) {
        for (int qi = 0; qi < 3; ++qi) {
            const auto &yf = at(2, ni, qi);
            std::printf("%4u %8.2f | %10llu %10llu %10llu | %6llu "
                        "%6llu %6llu\n",
                        kNs[ni], kQs3[qi],
                        static_cast<unsigned long long>(yf.finalTick),
                        static_cast<unsigned long long>(yf.netMessages),
                        static_cast<unsigned long long>(
                            yf.stolenCycles),
                        static_cast<unsigned long long>(yf.latencyP50),
                        static_cast<unsigned long long>(yf.latencyP95),
                        static_cast<unsigned long long>(yf.latencyP99));
        }
    }
    std::printf("\nYen-Fu trims the full map's upgrade round trips "
                "(Sec. 2.4.3) at the\nprice of querying every "
                "sole-holder block on remote access.\n\n");
}

void
controllerAblation(const std::vector<Cell> &cells)
{
    auto at = [&](int mode, int ni, int qi) -> const TimedRunResult & {
        return cells[kControllerBase +
                     static_cast<std::size_t>(mode * 6 + ni * 2 + qi)]
            .r;
    };
    std::printf("2. Sec. 3.2.5 controller options: serial vs "
                "per-block-concurrent\n\n");
    std::printf("%4s %8s | %14s %14s %10s | %10s %10s\n", "n", "q",
                "serial cycles", "perblk cycles", "speedup",
                "serial p99", "perblk p99");
    for (int ni = 0; ni < 3; ++ni) {
        for (int qi = 0; qi < 2; ++qi) {
            const auto &serial = at(0, ni, qi);
            const auto &perblk = at(1, ni, qi);
            std::printf(
                "%4u %8.2f | %14llu %14llu %9.2fx | %10llu %10llu\n",
                kNs[ni], kQs2[qi],
                static_cast<unsigned long long>(serial.finalTick),
                static_cast<unsigned long long>(perblk.finalTick),
                static_cast<double>(serial.finalTick) /
                    static_cast<double>(perblk.finalTick),
                static_cast<unsigned long long>(serial.latencyP99),
                static_cast<unsigned long long>(perblk.latencyP99));
        }
    }
    std::printf("\nThe paper predicted option 1 'could lead to "
                "important performance\ndegradation'; the "
                "multiprogrammed controller recovers it — and the\n"
                "latency tail (p99) shows where the serial "
                "controller's queueing bites.\n\n");
}

void
snoopFilterTimed(const std::vector<Cell> &cells)
{
    std::printf("3. Sec. 4.4(a) duplicate cache directory, timed\n\n");
    std::printf("%4s | %12s %12s %12s\n", "n", "stolen", "filtered",
                "cycles");
    for (int ni = 0; ni < 2; ++ni) {
        for (int si = 0; si < 2; ++si) {
            const auto &r =
                cells[kSnoopBase +
                      static_cast<std::size_t>(ni * 2 + si)]
                    .r;
            std::printf("%4u%c| %12llu %12llu %12llu\n",
                        ni == 0 ? 8u : 16u, si ? '+' : ' ',
                        static_cast<unsigned long long>(r.stolenCycles),
                        static_cast<unsigned long long>(r.filteredCmds),
                        static_cast<unsigned long long>(r.finalTick));
        }
    }
    std::printf("\n('+' = with duplicate directory.)  Stolen cycles "
                "collapse to the\nactually-shared checks; messages and "
                "end-to-end time barely move —\nexactly the limitation "
                "the paper states for this enhancement.\n\n");
}

void
networkKindComparison(const std::vector<Cell> &cells)
{
    std::printf("4. interconnection-network kinds: why bus schemes "
                "broadcast freely\n\n");
    std::printf("%-10s %4s | %12s %12s %12s\n", "network", "n",
                "cycles", "messages", "wait cycles");
    for (int ki = 0; ki < 3; ++ki) {
        for (int ni = 0; ni < 2; ++ni) {
            const auto &r =
                cells[kNetworkBase +
                      static_cast<std::size_t>(ki * 2 + ni)]
                    .r;
            std::printf("%-10s %4u | %12llu %12llu %12llu\n",
                        enumName(netKindNames, kNets[ki]), ni == 0 ? 4u : 16u,
                        static_cast<unsigned long long>(r.finalTick),
                        static_cast<unsigned long long>(r.netMessages),
                        static_cast<unsigned long long>(
                            r.netWaitCycles));
        }
    }
    std::printf(
        "\nOn a shared bus a BROADINV is one transaction regardless "
        "of n — which\nis exactly why the Sec. 2.5 bus schemes can "
        "afford to broadcast on\nevery miss; but the bus itself "
        "serialises ALL traffic, capping the\nsystem.  On the "
        "crossbar (the paper's general interconnection network)\n"
        "fan-out costs n-1 messages and the two-bit overhead scales "
        "with n,\nwhile point-to-point traffic enjoys full "
        "parallelism — the trade-off\nSec. 3.1 describes.\n");
}

Json
cellJson(const Spec &s, const Cell &c)
{
    Json j = Json::object();
    j.set("section", s.section);
    j.set("protocol", enumName(timedProtoNames, s.proto));
    j.set("n", s.n);
    j.set("q", s.q);
    j.set("perBlock", s.perBlock);
    j.set("snoop", s.snoop);
    j.set("net", enumName(netKindNames, s.net));
    j = timedResultToJson(c.r, std::move(j));
    j.set("latency", c.latency);
    if (hasDirStore(c.r.dirStore))
        j.set("dirStore", dirStoreJson(c.r.dirStore));
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E8: timed system experiments (discrete-event, "
        "oracle-checked)",
        true);
    const WallTimer timer;
    const std::uint64_t refs = bo.scaleRefs(20000);

    const std::vector<Spec> grid = buildGrid();
    std::vector<Cell> cells(grid.size());
    // --series-out samples the first comparison cell (two_bit, n=4,
    // q=0.01): one cell keeps the artifact a single deterministic
    // series, and sampling never changes any cell's statistics.
    std::unique_ptr<TelemetrySampler> sampler;
    if (bo.seriesRequested())
        sampler = std::make_unique<TelemetrySampler>(
            SeriesDomain::Ticks, bo.resolvedSeriesInterval());
    parallelFor(
        0, grid.size(),
        [&](std::size_t i) {
            cells[i] = runCell(grid[i], refs, bo.dirRamBudget,
                               i == 0 ? sampler.get() : nullptr);
        },
        bo.threads);

    std::printf("E8: timed system experiments (discrete-event, "
                "oracle-checked)\n\n");
    protocolComparison(cells, refs);
    controllerAblation(cells);
    snoopFilterTimed(cells);
    networkKindComparison(cells);

    Json params = Json::object();
    params.set("refs", static_cast<unsigned long long>(refs));
    params.set("modules", 4);
    params.set("w", 0.3);
    params.set("seed", 31);
    params.set("dirRamBudget",
               static_cast<unsigned long long>(bo.dirRamBudget));
    if (sampler && !bo.seriesPath.empty()) {
        const Spec &s0 = grid[0];
        Json sp = Json::object();
        sp.set("protocol", enumName(timedProtoNames, s0.proto));
        sp.set("n", s0.n);
        sp.set("q", s0.q);
        sp.set("perBlock", s0.perBlock);
        sp.set("net", enumName(netKindNames, s0.net));
        sp.set("refs", static_cast<unsigned long long>(refs));
        sp.set("seed", 31);
        sp.set("dirRamBudget",
               static_cast<unsigned long long>(bo.dirRamBudget));
        writeArtifact(bo.seriesPath,
                      makeSeriesArtifact("bench_timed", std::move(sp),
                                         *sampler));
        std::printf("wrote %s (%zu samples)\n", bo.seriesPath.c_str(),
                    sampler->samples());
    }

    Json out = Json::array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        Json c = cellJson(grid[i], cells[i]);
        if (i == 0 && sampler)
            c.set("series", seriesProvenanceJson(*sampler));
        out.push(std::move(c));
    }
    emitArtifact(bo, "bench_timed", std::move(params), std::move(out),
                 Json(), timer);
    return 0;
}
