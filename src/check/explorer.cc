#include "check/explorer.hh"

#include <deque>
#include <sstream>
#include <unordered_set>

#include "core/two_bit_protocol.hh"
#include "core/two_bit_wt_protocol.hh"
#include "proto/protocol_factory.hh"
#include "proto/table_engine.hh"
#include "util/parallel.hh"

namespace dir2b
{

std::string
toString(const CheckAction &a)
{
    std::ostringstream os;
    os << "P" << a.proc << " ";
    switch (a.kind) {
      case CheckAction::Kind::Load:
        os << "LOAD " << a.addr;
        break;
      case CheckAction::Kind::Store:
        os << "STORE " << a.addr;
        break;
      case CheckAction::Kind::Flush:
        os << "FLUSH";
        break;
    }
    return os.str();
}

bool
protocolSupportsFlush(const std::string &name)
{
    ProtoConfig cfg;
    cfg.numProcs = 2;
    return makeProtocol(name, cfg)->supportsFlush();
}

namespace
{

/** A concrete replayed state: protocol plus last-writer shadow. */
struct Sim
{
    std::unique_ptr<Protocol> proto;
    CoherenceOracle oracle;
};

ProtoConfig
makeProtoConfig(const ExplorerConfig &cfg)
{
    ProtoConfig pc;
    pc.numProcs = cfg.numProcs;
    pc.numModules = cfg.numModules;
    pc.cacheGeom.sets = cfg.sets;
    pc.cacheGeom.ways = cfg.ways;
    // The translation buffer must not evict (hidden state); a handful
    // of blocks never comes close to this capacity.
    pc.tbCapacity = 1024;
    // The software scheme is only coherent for blocks its compiler
    // classified shared-writeable; every explorer block is written by
    // several processors, so classify them all.
    if (cfg.protocol == "software")
        pc.nonCacheableBase = 0;
    return pc;
}

Sim
makeSim(const ExplorerConfig &cfg)
{
    return Sim{makeProtocol(cfg.protocol, makeProtoConfig(cfg)), {}};
}

/** Execute one action; reports a stale LOAD as a violation. */
std::optional<Violation>
applyAction(Sim &sim, const CheckAction &act)
{
    switch (act.kind) {
      case CheckAction::Kind::Load: {
        const Value v = sim.proto->access(act.proc, act.addr, false);
        const Value want = sim.oracle.expected(act.addr);
        if (v != want) {
            std::ostringstream os;
            os << toString(act) << " returned " << v
               << " but the most recently written value is " << want;
            return Violation{"stale-read", os.str()};
        }
        break;
      }
      case CheckAction::Kind::Store: {
        const Value wval = sim.oracle.freshValue();
        sim.proto->access(act.proc, act.addr, true, wval);
        sim.oracle.onWrite(act.addr, wval);
        break;
      }
      case CheckAction::Kind::Flush:
        sim.proto->flushCache(act.proc);
        break;
    }
    return std::nullopt;
}

/**
 * Abstraction signature: per-cache line states with value freshness,
 * per-block memory freshness, and the two-bit global state where the
 * scheme keeps one.  Finite alphabet, hence a finite reachable set.
 */
std::string
signatureOf(const Sim &sim, const ExplorerConfig &cfg)
{
    const Protocol &p = *sim.proto;
    const auto *tb = dynamic_cast<const TwoBitProtocol *>(&p);
    const auto *wt = dynamic_cast<const TwoBitWtProtocol *>(&p);
    const auto *tab = dynamic_cast<const TableProtocol *>(&p);

    std::string sig;
    sig.reserve((p.numProcs() + 2) * cfg.numBlocks + 4);
    for (Addr a = 0; a < cfg.numBlocks; ++a) {
        for (ProcId k = 0; k < p.numProcs(); ++k) {
            const CacheLine *l = p.cache(k).peek(a);
            if (!l || !l->valid()) {
                sig += '-';
                continue;
            }
            sig += "ISERMO"[static_cast<unsigned>(l->state)];
            sig += l->value == sim.oracle.expected(a) ? 'f' : 's';
        }
        sig += p.memValue(a) == sim.oracle.expected(a) ? 'F' : 'S';
        if (tb)
            sig += '0' + static_cast<char>(tb->globalState(a));
        else if (wt)
            sig += '0' + static_cast<char>(wt->globalState(a));
        else if (tab)
            sig += '0' + static_cast<char>(tab->dirStateOf(a));
        sig += '|';
    }
    return sig;
}

std::vector<CheckAction>
actionAlphabet(const ExplorerConfig &cfg)
{
    std::vector<CheckAction> acts;
    for (ProcId k = 0; k < cfg.numProcs; ++k) {
        for (Addr a = 0; a < cfg.numBlocks; ++a) {
            acts.push_back({CheckAction::Kind::Load, k, a});
            acts.push_back({CheckAction::Kind::Store, k, a});
        }
        if (cfg.includeFlush && protocolSupportsFlush(cfg.protocol))
            acts.push_back({CheckAction::Kind::Flush, k, 0});
    }
    return acts;
}

} // namespace

ExploreResult
explore(const ExplorerConfig &cfg)
{
    ExploreResult res;
    const auto alphabet = actionAlphabet(cfg);
    std::vector<Addr> blocks;
    for (Addr a = 0; a < cfg.numBlocks; ++a)
        blocks.push_back(a);

    // BFS over abstraction signatures; each frontier entry carries the
    // action trail that reproduces its representative concrete state.
    std::unordered_set<std::string> seen;
    std::deque<std::vector<CheckAction>> frontier;

    {
        Sim init = makeSim(cfg);
        if (const auto *tab =
                dynamic_cast<const TableProtocol *>(init.proto.get())) {
            res.totalRows = tab->table().rows.size();
            res.rowsFired.assign(res.totalRows, 0);
        }
        seen.insert(signatureOf(init, cfg));
        frontier.push_back({});
        res.statesVisited = 1;
    }

    auto fail = [&](const Violation &v,
                    const std::vector<CheckAction> &trail) {
        res.violations.push_back(v);
        res.trail = trail;
    };

    // Row coverage: union the fire counts of every replayed sim so a
    // closed search proves exactly which table rows are live.
    auto harvest = [&](const Sim &sim) {
        const auto *tab =
            dynamic_cast<const TableProtocol *>(sim.proto.get());
        if (!tab)
            return;
        const auto &hits = tab->rowHits();
        for (std::size_t i = 0; i < hits.size(); ++i)
            res.rowsFired[i] += hits[i];
    };

    bool truncated = false;
    while (!frontier.empty() && res.violations.empty()) {
        const std::vector<CheckAction> trail =
            std::move(frontier.front());
        frontier.pop_front();
        if (trail.size() >= cfg.maxDepth) {
            // This state was reached but never expanded: the search
            // is depth-bounded, not closed.
            truncated = true;
            continue;
        }
        res.depthReached =
            std::max<unsigned>(res.depthReached,
                               static_cast<unsigned>(trail.size()) + 1);

        for (const CheckAction &act : alphabet) {
            // Replay the representative, then take one step.
            Sim sim = makeSim(cfg);
            for (const CheckAction &past : trail)
                applyAction(sim, past);

            std::vector<CheckAction> next = trail;
            next.push_back(act);

            const bool countable =
                act.kind != CheckAction::Kind::Flush &&
                broadcastDeltaApplies(*sim.proto);
            PreAccess pre;
            MemRef ref{act.proc, act.addr,
                       act.kind == CheckAction::Kind::Store};
            if (countable)
                pre = snapshotPreAccess(*sim.proto, ref);

            if (auto v = applyAction(sim, act)) {
                harvest(sim);
                fail(*v, next);
                break;
            }
            ++res.transitionsChecked;
            harvest(sim);

            if (countable) {
                if (auto v = checkBroadcastDelta(
                        *sim.proto, pre, ref, sim.proto->lastDelta())) {
                    fail(*v, next);
                    break;
                }
            }
            if (auto v =
                    checkProtocolState(*sim.proto, sim.oracle, blocks)) {
                fail(*v, next);
                break;
            }
            sim.proto->bank().checkIndex();

            const std::string sig = signatureOf(sim, cfg);
            if (seen.size() >= cfg.maxStates)
                continue;
            if (seen.insert(sig).second) {
                ++res.statesVisited;
                frontier.push_back(std::move(next));
            }
        }
    }

    res.closed = res.violations.empty() && frontier.empty() &&
                 !truncated && seen.size() < cfg.maxStates;

    if (res.totalRows > 0) {
        Sim probe = makeSim(cfg);
        const auto &table =
            dynamic_cast<const TableProtocol &>(*probe.proto).table();
        for (std::size_t i = 0; i < res.totalRows; ++i)
            if (res.rowsFired[i] == 0)
                res.unreachableRows.push_back(describeRow(table, i));
    }
    return res;
}

std::vector<ExploreResult>
exploreGrid(const std::vector<ExplorerConfig> &grid, unsigned threads)
{
    std::vector<ExploreResult> out(grid.size());
    parallelFor(0, grid.size(),
                [&](std::size_t i) { out[i] = explore(grid[i]); },
                threads);
    return out;
}

std::vector<ExplorerConfig>
defaultExplorerGrid()
{
    std::vector<ExplorerConfig> grid;
    auto names = protocolNames();
    names.push_back("two_bit_nop1");
    for (const auto &name : names) {
        for (std::size_t blocks : {1u, 2u}) {
            ExplorerConfig c;
            c.protocol = name;
            c.numProcs = 2;
            c.numBlocks = blocks;
            grid.push_back(c);
        }
        // Direct-mapped single-frame cell: every second fill evicts,
        // covering the §3.2.1 replacement interleavings.
        ExplorerConfig tight;
        tight.protocol = name;
        tight.numProcs = 2;
        tight.numBlocks = 2;
        tight.sets = 1;
        tight.ways = 1;
        grid.push_back(tight);
    }
    return grid;
}

} // namespace dir2b
