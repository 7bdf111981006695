/**
 * @file
 * E3: validate Table 4-1 by simulation.
 *
 * For each sharing case and processor count, the identical synthetic
 * reference stream (the merged private/shared model of §4.2) is run
 * through the two-bit protocol and the full map.  We report:
 *
 *   - the *measured* extra commands per memory reference of the
 *     two-bit scheme (its useless broadcast deliveries — the full map
 *     sends none, which the run verifies);
 *   - the §4.2 closed form evaluated at the *measured* parameters
 *     (q, w, h and the time-average state occupancies P(P1), P(P*),
 *     P(PM) sampled from the live directory) — so the formula is
 *     checked against simulation without assuming the paper's
 *     probabilities.
 *
 * The last column is the ratio; values near 1.0 validate the model.
 *
 * The 12-cell (case x n) grid dispatches through the sweep pool; each
 * cell runs its two simulations back to back on fixed seeds, so the
 * report is identical at any thread count.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "model/overhead_model.hh"
#include "proto/protocol_factory.hh"
#include "report/bench_cli.hh"
#include "system/func_system.hh"
#include "trace/synthetic.hh"
#include "util/parallel.hh"

namespace
{

using namespace dir2b;

struct CaseSpec
{
    const char *name;
    double q;
    double w;
    /** Shared-stream locality, tuned so the measured shared hit
     *  ratio lands near the h of the corresponding §4.3 case. */
    double locality;
};

const CaseSpec cases[] = {
    {"low      (q=.01,w=.2)", 0.01, 0.2, 0.97},
    {"moderate (q=.05,w=.2)", 0.05, 0.2, 0.93},
    {"high     (q=.10,w=.4)", 0.10, 0.4, 0.85},
};

const unsigned procCounts[] = {4u, 8u, 16u, 32u};

struct CellResult
{
    SharingParams measured; ///< closed-form inputs at measured values
    double measuredOverhead = 0.0;
    double predicted = 0.0;
    std::uint64_t fmUseless = 0;
};

CellResult
runCell(const CaseSpec &cs, ProcId n, std::uint64_t refs)
{
    constexpr std::size_t sharedBlocks = 16;

    ProtoConfig cfg;
    cfg.numProcs = n;
    cfg.cacheGeom.sets = 32;
    cfg.cacheGeom.ways = 4; // 128 blocks, as in Table 4-2's caption
    cfg.numModules = 4;

    SyntheticConfig scfg;
    scfg.numProcs = n;
    scfg.q = cs.q;
    scfg.w = cs.w;
    scfg.sharedBlocks = sharedBlocks;
    scfg.privateBlocks = 96;
    scfg.hotBlocks = 24;
    scfg.sharedLocality = cs.locality;
    scfg.seed = 2026;

    RunOptions opts;
    opts.numRefs = refs;
    opts.checkCoherence = true;
    opts.sampleEvery = 64;
    opts.sharedBlocks = sharedBlocks;

    // Two-bit run (with state sampling).
    auto twoBit = makeProtocol("two_bit", cfg);
    SyntheticStream s1(scfg);
    const RunResult r2 = runFunctional(*twoBit, s1, opts);

    // Full-map run on the identical stream: must have zero useless.
    auto fullMap = makeProtocol("full_map", cfg);
    SyntheticStream s2(scfg);
    RunOptions fmOpts = opts;
    fmOpts.sampleEvery = 0;
    const RunResult rf = runFunctional(*fullMap, s2, fmOpts);

    CellResult res;
    res.measuredOverhead = r2.perCacheUselessPerRef;
    res.fmUseless = rf.counts.uselessCmds;

    // Closed form at the measured parameters.
    SharingParams &sp = res.measured;
    sp.n = n;
    sp.q = r2.measuredQ(refs);
    sp.w = r2.measuredW();
    sp.h = r2.measuredH();
    sp.pP1 = r2.stateOccupancy[static_cast<int>(GlobalState::Present1)];
    sp.pPStar =
        r2.stateOccupancy[static_cast<int>(GlobalState::PresentStar)];
    sp.pPM = r2.stateOccupancy[static_cast<int>(GlobalState::PresentM)];
    res.predicted = overhead(sp).perCache;
    return res;
}

void
printCell(const CaseSpec &cs, unsigned n, const CellResult &r)
{
    const SharingParams &sp = r.measured;
    std::printf(
        "%s  n=%2u  meas_q=%.3f w=%.2f h=%.3f  "
        "P1=%.2f P*=%.2f PM=%.2f | measured %8.4f  model %8.4f  "
        "ratio %.2f | fm useless %llu\n",
        cs.name, n, sp.q, sp.w, sp.h, sp.pP1, sp.pPStar, sp.pPM,
        r.measuredOverhead, r.predicted,
        r.predicted > 0 ? r.measuredOverhead / r.predicted : 0.0,
        static_cast<unsigned long long>(r.fmUseless));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E3: Table 4-1 cross-checked by live simulation");
    const WallTimer timer;
    const std::uint64_t refs = bo.scaleRefs(200000);

    constexpr std::size_t numCases = std::size(cases);
    constexpr std::size_t numNs = std::size(procCounts);
    std::vector<CellResult> results(numCases * numNs);
    parallelFor(
        0, results.size(),
        [&](std::size_t i) {
            results[i] = runCell(cases[i / numNs],
                                 procCounts[i % numNs], refs);
        },
        bo.threads);

    std::printf(
        "E3: Table 4-1 validated by simulation — measured per-cache\n"
        "useless commands per reference ((n-1)*T_SUM) vs. the Sec. 4.2\n"
        "closed form evaluated at measured parameters.\n\n");
    for (std::size_t ci = 0; ci < numCases; ++ci) {
        for (std::size_t ni = 0; ni < numNs; ++ni)
            printCell(cases[ci], procCounts[ni],
                      results[ci * numNs + ni]);
        std::printf("\n");
    }
    std::printf("The full map sends zero useless commands in every run "
                "(last column),\nwhich is the baseline the overhead is "
                "measured against.\n");

    Json params = Json::object();
    params.set("refs", static_cast<unsigned long long>(refs));
    params.set("sharedBlocks", 16);
    params.set("seed", 2026);
    Json cellsJson = Json::array();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseSpec &cs = cases[i / numNs];
        const CellResult &r = results[i];
        Json c = Json::object();
        c.set("section", "validation");
        c.set("case", i / numNs == 0   ? "low"
                      : i / numNs == 1 ? "moderate"
                                       : "high");
        c.set("q", cs.q);
        c.set("w", cs.w);
        c.set("n", procCounts[i % numNs]);
        c.set("measuredOverhead", r.measuredOverhead);
        c.set("predictedOverhead", r.predicted);
        c.set("ratio", r.predicted > 0
                           ? r.measuredOverhead / r.predicted
                           : 0.0);
        c.set("fullMapUseless",
              static_cast<unsigned long long>(r.fmUseless));
        Json meas = Json::object();
        meas.set("q", r.measured.q);
        meas.set("w", r.measured.w);
        meas.set("h", r.measured.h);
        meas.set("pP1", r.measured.pP1);
        meas.set("pPStar", r.measured.pPStar);
        meas.set("pPM", r.measured.pPM);
        c.set("measuredParams", std::move(meas));
        cellsJson.push(std::move(c));
    }
    emitArtifact(bo, "bench_sim_validation", std::move(params),
                 std::move(cellsJson), Json(), timer);
    return 0;
}
