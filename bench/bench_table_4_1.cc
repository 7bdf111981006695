/**
 * @file
 * E1: regenerate Table 4-1 — "Added overhead of two-bit scheme in
 * commands per memory reference" — from the §4.2 closed form, in the
 * paper's layout (three sharing cases x w rows x n columns).
 *
 * A second table prints the same quantity derived from first
 * principles by the two-bit directory-state Markov chain (no assumed
 * P(P1)/P(P*)/P(PM)), as an ablation of the paper's assumed state
 * probabilities.
 *
 * Both grids dispatch cell-by-cell through the sweep pool and can be
 * exported with --json (docs/METRICS.md).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "model/overhead_model.hh"
#include "model/sharing_chain.hh"
#include "report/bench_cli.hh"
#include "util/parallel.hh"
#include "util/table.hh"

namespace
{

using namespace dir2b;

const SharingLevel kLevels[3] = {SharingLevel::Low,
                                 SharingLevel::Moderate,
                                 SharingLevel::High};

/** Flat (case, w, n) grid index helpers. */
struct Grid
{
    std::vector<double> ws;
    std::vector<unsigned> ns;

    std::size_t size() const { return 3 * ws.size() * ns.size(); }
    SharingLevel
    level(std::size_t i) const
    {
        return kLevels[i / (ws.size() * ns.size())];
    }
    double
    w(std::size_t i) const
    {
        return ws[(i / ns.size()) % ws.size()];
    }
    unsigned n(std::size_t i) const { return ns[i % ns.size()]; }
};

Grid
table41Grid()
{
    return Grid{table41WriteProbs(), table41ProcessorCounts()};
}

std::vector<double>
closedFormCells(const Grid &g, unsigned threads)
{
    std::vector<double> vals(g.size());
    parallelFor(
        0, g.size(),
        [&](std::size_t i) {
            SharingParams p = sharingCase(g.level(i), g.n(i), g.w(i));
            vals[i] = overhead(p).perCache;
        },
        threads);
    return vals;
}

std::vector<double>
chainCells(const Grid &g, unsigned threads)
{
    std::vector<double> vals(g.size());
    parallelFor(
        0, g.size(),
        [&](std::size_t i) {
            ChainParams cp;
            cp.n = g.n(i);
            cp.q = sharingCase(g.level(i), 4, 0.1).q;
            cp.w = g.w(i);
            cp.sharedBlocks = 16;
            cp.evictRate = evictRateFromGeometry(g.n(i), 128);
            vals[i] = solveTwoBitChain(cp).perCache;
        },
        threads);
    return vals;
}

void
printGrid(TextTable &t, const Grid &g, const std::vector<double> &vals,
          bool withQ)
{
    int caseNo = 1;
    std::size_t i = 0;
    for (auto level : kLevels) {
        std::string head = "case " + std::to_string(caseNo++) + ": " +
                           toString(level);
        if (withQ) {
            const double q = sharingCase(level, 4, 0.1).q;
            head += " (q=" + TextTable::num(q, 2) + ")";
        }
        t.addRow({std::move(head), "", "", "", "", ""});
        for (double w : g.ws) {
            std::vector<std::string> row{"  w = " + TextTable::num(w, 1)};
            for (std::size_t k = 0; k < g.ns.size(); ++k)
                row.push_back(TextTable::num(vals[i++]));
            t.addRow(std::move(row));
        }
        t.addRule();
    }
}

void
printClosedForm(const Grid &g, const std::vector<double> &vals)
{
    TextTable t({"", "n: 4", "8", "16", "32", "64"});
    t.setTitle("Table 4-1 (reproduction): added overhead of two-bit "
               "scheme,\n(n-1) * T_SUM commands per memory reference "
               "[closed form, Sec. 4.2]");
    printGrid(t, g, vals, false);
    t.print(std::cout);

    std::cout
        << "\nNotes vs. the printed paper:\n"
        << " * case 1, w=0.3, n=16: the paper prints 0.970; the formula\n"
        << "   gives 0.070 (the column is otherwise monotone 0.047 ->\n"
        << "   0.092), a typesetting error in the original.\n"
        << " * case 1, w=0.1, n=4: the paper prints 0.000 for 0.00097\n"
        << "   (truncation rather than rounding).\n";
}

void
printChainPrediction(const Grid &g, const std::vector<double> &vals)
{
    TextTable t({"", "n: 4", "8", "16", "32", "64"});
    t.setTitle("\nAblation: the same overhead predicted from first "
               "principles by the\ntwo-bit directory-state Markov chain "
               "(S=16 shared blocks, 128-block\ncaches; state "
               "probabilities emerge instead of being assumed)");
    printGrid(t, g, vals, true);
    t.print(std::cout);
}

TwoBitChainResult
moderateChainReference()
{
    // State-probability comparison for the moderate case: what the
    // paper assumed vs. what the chain predicts.
    ChainParams cp;
    cp.n = 16;
    cp.q = 0.05;
    cp.w = 0.2;
    cp.sharedBlocks = 16;
    cp.evictRate = evictRateFromGeometry(16, 128);
    return solveTwoBitChain(cp);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bo = parseBenchOptions(
        argc, argv,
        "E1: Table 4-1 from the Sec. 4.2 closed form, plus the "
        "Markov-chain ablation");
    const WallTimer timer;

    const Grid g = table41Grid();
    const std::vector<double> closed = closedFormCells(g, bo.threads);
    const std::vector<double> chain = chainCells(g, bo.threads);

    printClosedForm(g, closed);
    printChainPrediction(g, chain);

    const auto r = moderateChainReference();
    std::cout << "\nState probabilities, moderate sharing (paper "
                 "assumption vs. chain, n=16, w=0.2):\n";
    std::printf("  P(P1):  paper 0.25   chain %.3f\n", r.pP1);
    std::printf("  P(P*):  paper 0.05   chain %.3f\n", r.pPStar);
    std::printf("  P(PM):  paper 0.10   chain %.3f\n", r.pPM);
    std::printf("  P(P* with zero copies) [the Sec. 3.1 anomaly]: %.4f\n",
                r.pStarEmpty);

    Json params = Json::object();
    params.set("sharedBlocks", 16);
    params.set("cacheBlocks", 128);
    Json cells = Json::array();
    auto pushCells = [&](const char *section,
                         const std::vector<double> &vals) {
        for (std::size_t i = 0; i < g.size(); ++i) {
            Json c = Json::object();
            c.set("section", section);
            c.set("case", toString(g.level(i)));
            c.set("w", g.w(i));
            c.set("n", g.n(i));
            c.set("perCache", vals[i]);
            cells.push(std::move(c));
        }
    };
    pushCells("closed_form", closed);
    pushCells("chain", chain);

    Json summary = Json::object();
    Json probs = Json::object();
    probs.set("pP1", r.pP1);
    probs.set("pPStar", r.pPStar);
    probs.set("pPM", r.pPM);
    probs.set("pStarEmpty", r.pStarEmpty);
    summary.set("chainStateProbs_n16_w02", std::move(probs));
    Json notes = Json::array();
    notes.push("paper prints 0.970 for 0.070 at case 1, w=0.3, n=16 "
               "(typesetting error)");
    notes.push("paper prints 0.000 for 0.00097 at case 1, w=0.1, n=4 "
               "(truncated, not rounded)");
    summary.set("paperErrata", std::move(notes));

    emitArtifact(bo, "bench_table_4_1", std::move(params),
                 std::move(cells), std::move(summary), timer);
    return 0;
}
