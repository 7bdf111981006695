/**
 * @file
 * E2: regenerate Table 4-2 — "Added overhead derived from model in
 * [3]" — the Dubois-Briggs estimate (n-1) * T_R, with the paper's
 * parameters: cache size 128 blocks, 16 shared blocks, uniform 1/16
 * per-block reference probability.
 *
 * The 1982 model's internal equations are not reprinted in the paper,
 * so this is the reconstruction documented in DESIGN.md Sec. 5: a
 * single-block Markov chain over (copies, dirty) whose command rate
 * under a full map is T_R.  The paper's printed values are shown next
 * to ours; the comparison target is the *shape* (growth in n, q, w and
 * the acceptability boundaries), which the paper itself relies on when
 * it says the "two different methods of analysis agree well".
 *
 * The 60-cell grid dispatches through the sweep pool; the ordering
 * summary reuses the computed cells.  --json exports every cell with
 * both values (docs/METRICS.md).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "model/sharing_chain.hh"
#include "report/bench_cli.hh"
#include "util/parallel.hh"
#include "util/table.hh"

namespace
{

using namespace dir2b;

// The paper's printed Table 4-2 for side-by-side display.
const double paper42[3][4][5] = {
    // q = 0.01
    {{0.007, 0.028, 0.091, 0.253, 0.599},
     {0.013, 0.046, 0.131, 0.315, 0.684},
     {0.017, 0.057, 0.152, 0.344, 0.730},
     {0.020, 0.065, 0.163, 0.360, 0.756}},
    // q = 0.05
    {{0.047, 0.175, 0.517, 1.312, 3.005},
     {0.079, 0.259, 0.682, 1.583, 3.425},
     {0.100, 0.308, 0.769, 1.724, 3.655},
     {0.114, 0.338, 0.819, 1.804, 3.786}},
    // q = 0.10
    {{0.095, 0.351, 1.036, 2.628, 6.018},
     {0.158, 0.518, 1.365, 3.170, 6.859},
     {0.200, 0.616, 1.540, 3.453, 7.319},
     {0.228, 0.676, 1.641, 3.613, 7.582}},
};

const double qs[3] = {0.01, 0.05, 0.10};
const double ws[4] = {0.1, 0.2, 0.3, 0.4};
const unsigned ns[5] = {4, 8, 16, 32, 64};

constexpr int kCells = 3 * 4 * 5;

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E2: Table 4-2 from the reconstructed Dubois-Briggs chain");
    const WallTimer timer;

    // Flat index i = ((qi * 4) + wi) * 5 + ni, matching the print
    // order; each cell solves its own chain.
    std::vector<double> cells(kCells);
    parallelFor(
        0, kCells,
        [&](std::size_t i) {
            ChainParams cp;
            cp.n = ns[i % 5];
            cp.q = qs[i / 20];
            cp.w = ws[(i / 5) % 4];
            cp.sharedBlocks = 16;
            cp.evictRate = evictRateFromGeometry(cp.n, 128);
            cells[i] = solveFullMapChain(cp).perCache;
        },
        bo.threads);
    auto ours = [&](int qi, int wi, int ni) {
        return cells[static_cast<std::size_t>((qi * 4 + wi) * 5 + ni)];
    };

    TextTable t({"", "n: 4", "8", "16", "32", "64"});
    t.setTitle(
        "Table 4-2 (reproduction): added overhead from the "
        "Dubois-Briggs model,\n(n-1) * T_R commands per memory "
        "reference [reconstructed chain;\ncache 128 blocks, S=16 "
        "shared blocks, uniform 1/16]\nEach cell: ours / paper");

    for (int qi = 0; qi < 3; ++qi) {
        t.addRow({"q = " + TextTable::num(qs[qi], 2), "", "", "", "",
                  ""});
        for (int wi = 0; wi < 4; ++wi) {
            std::vector<std::string> row{"  w = " +
                                         TextTable::num(ws[wi], 1)};
            for (int ni = 0; ni < 5; ++ni)
                row.push_back(TextTable::num(ours(qi, wi, ni)) + "/" +
                              TextTable::num(paper42[qi][wi][ni]));
            t.addRow(std::move(row));
        }
        t.addRule();
    }
    t.print(std::cout);

    // Shape agreement summary: correlation-style check of the two
    // tables' orderings.
    int agree = 0;
    int total = 0;
    for (int a = 0; a < kCells; ++a) {
        for (int b = a + 1; b < kCells; ++b) {
            const double oa = ours(a / 20, (a / 5) % 4, a % 5);
            const double ob = ours(b / 20, (b / 5) % 4, b % 5);
            const double pa = paper42[a / 20][(a / 5) % 4][a % 5];
            const double pb = paper42[b / 20][(b / 5) % 4][b % 5];
            if ((oa < ob) == (pa < pb))
                ++agree;
            ++total;
        }
    }
    std::printf("\nPairwise ordering agreement with the paper's table: "
                "%d/%d (%.1f%%)\n",
                agree, total, 100.0 * agree / total);
    std::printf("Acceptability reading (overhead < 1.0): q=0.01 OK "
                "through n=64: %s;\n  q=0.05 OK through n=16: %s; "
                "q=0.10 beyond n=8 exceeds 1.0 near n=16: %s\n",
                ours(0, 3, 4) < 1.0 ? "yes" : "no",
                ours(1, 3, 2) < 1.0 ? "yes" : "no",
                ours(2, 3, 2) > 0.5 ? "yes" : "no");

    Json params = Json::object();
    params.set("sharedBlocks", 16);
    params.set("cacheBlocks", 128);
    Json jcells = Json::array();
    for (int i = 0; i < kCells; ++i) {
        Json c = Json::object();
        c.set("section", "dubois_briggs");
        c.set("q", qs[i / 20]);
        c.set("w", ws[(i / 5) % 4]);
        c.set("n", ns[i % 5]);
        c.set("perCache", cells[static_cast<std::size_t>(i)]);
        c.set("paper", paper42[i / 20][(i / 5) % 4][i % 5]);
        jcells.push(std::move(c));
    }
    Json summary = Json::object();
    summary.set("orderingAgree", agree);
    summary.set("orderingTotal", total);
    emitArtifact(bo, "bench_table_4_2", std::move(params),
                 std::move(jcells), std::move(summary), timer);
    return 0;
}
