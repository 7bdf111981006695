#include "proto/table_engine.hh"

#include <sstream>
#include <unordered_map>

#include "util/logging.hh"

namespace dir2b
{

std::string
toString(EventClass e)
{
    switch (e) {
      case EventClass::ReadHit:
        return "ReadHit";
      case EventClass::WriteHitDirty:
        return "WriteHitDirty";
      case EventClass::WriteHitClean:
        return "WriteHitClean";
      case EventClass::ReadMiss:
        return "ReadMiss";
      case EventClass::WriteMiss:
        return "WriteMiss";
      case EventClass::EvictClean:
        return "EvictClean";
      case EventClass::EvictDirty:
        return "EvictDirty";
    }
    return "event#" + std::to_string(static_cast<unsigned>(e));
}

std::string
toString(TableGuard g)
{
    switch (g) {
      case TableGuard::Always:
        return "Always";
      case TableGuard::OtherHoldersNone:
        return "OtherHoldersNone";
      case TableGuard::OtherHoldersSome:
        return "OtherHoldersSome";
      case TableGuard::OwnerDirty:
        return "OwnerDirty";
      case TableGuard::OwnerClean:
        return "OwnerClean";
    }
    return "guard#" + std::to_string(static_cast<unsigned>(g));
}

std::string
toString(ActionOp op)
{
    switch (op) {
      case ActionOp::Bump:
        return "Bump";
      case ActionOp::ReadMem:
        return "ReadMem";
      case ActionOp::WritebackLine:
        return "WritebackLine";
      case ActionOp::FillLine:
        return "FillLine";
      case ActionOp::SetLine:
        return "SetLine";
      case ActionOp::WriteLine:
        return "WriteLine";
      case ActionOp::DropLine:
        return "DropLine";
      case ActionOp::SetDirState:
        return "SetDirState";
      case ActionOp::SendBroadInv:
        return "SendBroadInv";
      case ActionOp::SendBroadQueryRead:
        return "SendBroadQueryRead";
      case ActionOp::SendBroadQueryWrite:
        return "SendBroadQueryWrite";
      case ActionOp::SendInvHolders:
        return "SendInvHolders";
      case ActionOp::SendPurgeRead:
        return "SendPurgeRead";
      case ActionOp::SendPurgeWrite:
        return "SendPurgeWrite";
      case ActionOp::SendDowngradeOwner:
        return "SendDowngradeOwner";
      case ActionOp::SendFetchInvOwner:
        return "SendFetchInvOwner";
      case ActionOp::Stall:
        return "Stall";
    }
    return "op#" + std::to_string(static_cast<unsigned>(op));
}

namespace
{

std::string
stateName(const TransitionTable &t, std::uint8_t s)
{
    if (s == anyState)
        return "*";
    if (s < t.stateNames.size())
        return t.stateNames[s];
    return "#" + std::to_string(static_cast<unsigned>(s));
}

/** Highest LineState value (cache_types.hh). */
constexpr auto maxLineState =
    static_cast<std::uint8_t>(LineState::Owned);

bool
isHit(EventClass e)
{
    return e == EventClass::ReadHit || e == EventClass::WriteHitDirty ||
           e == EventClass::WriteHitClean;
}

/** The counter each TableCounter value (a Bump argument) bumps. */
constexpr std::uint64_t AccessCounts::*counterFields[numTableCounters] = {
    &AccessCounts::requests,      &AccessCounts::mrequests,
    &AccessCounts::ejects,        &AccessCounts::netMessages,
    &AccessCounts::dataTransfers, &AccessCounts::invalidations,
    &AccessCounts::purges,
};

} // namespace

std::string
describeRow(const TransitionTable &t, std::size_t i)
{
    if (i >= t.rows.size())
        return "row " + std::to_string(i) + " (out of range)";
    const TableRow &r = t.rows[i];
    std::ostringstream os;
    os << "(" << stateName(t, r.state) << ", " << toString(r.event)
       << ", " << toString(r.guard) << ") -> " << stateName(t, r.next);
    return os.str();
}

bool
TransitionTable::handlesEvict() const
{
    for (const TableRow &r : rows) {
        if (r.event == EventClass::EvictClean ||
            r.event == EventClass::EvictDirty)
            return true;
    }
    return false;
}

std::vector<std::string>
TransitionTable::validate() const
{
    std::vector<std::string> msgs;
    auto rowMsg = [&](std::size_t i, const std::string &what) {
        msgs.push_back("row " + std::to_string(i) + " " +
                       describeRow(*this, i) + ": " + what);
    };

    if (stateNames.empty() || stateNames.size() > 4) {
        msgs.push_back("table '" + name + "': " +
                       std::to_string(stateNames.size()) +
                       " states (a two-bit map holds 1..4)");
    }
    if (constraints.size() != stateNames.size()) {
        msgs.push_back("table '" + name + "': " +
                       std::to_string(constraints.size()) +
                       " state constraints for " +
                       std::to_string(stateNames.size()) + " states");
    }
    const auto nStates = static_cast<std::uint8_t>(stateNames.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const TableRow &r = rows[i];
        const bool any = r.state == anyState;
        if (static_cast<unsigned>(r.event) >= numEventClasses)
            rowMsg(i, "unknown event class " +
                          std::to_string(static_cast<unsigned>(r.event)));
        if (static_cast<unsigned>(r.guard) > 4)
            rowMsg(i, "unknown guard " +
                          std::to_string(static_cast<unsigned>(r.guard)));
        if (any && !isHit(r.event))
            rowMsg(i, "any-state row on a non-hit event: only a hit "
                      "may fire in every state");
        if (any && r.guard != TableGuard::Always)
            rowMsg(i, "any-state row must have the Always guard");
        if (!any && r.state >= nStates)
            rowMsg(i, "undefined state " +
                          std::to_string(static_cast<unsigned>(r.state)));
        // An any-state row's next is anyState (checked below, with
        // every row's next).
        if (r.next >= nStates && !(any && r.next == anyState))
            rowMsg(i, "undefined next-state " +
                          std::to_string(static_cast<unsigned>(r.next)));

        for (std::size_t j = 0; j < i; ++j) {
            const TableRow &p = rows[j];
            if (p.event == r.event && (p.state == anyState) != any) {
                rowMsg(i, "shares its event with row " +
                              std::to_string(j) +
                              ": an any-state row must be its event's "
                              "only row");
                break;
            }
            if (p.state != r.state || p.event != r.event)
                continue;
            if (p.guard == r.guard) {
                rowMsg(i, "duplicate of row " + std::to_string(j));
                break;
            }
            if (p.guard == TableGuard::Always) {
                rowMsg(i, "unreachable: row " + std::to_string(j) +
                              " matches Always first");
                break;
            }
        }

        bool sawSetDir = false;
        std::uint8_t lastSetDir = 0;
        for (std::size_t j = 0; j < r.actions.size(); ++j) {
            const TableAction &a = r.actions[j];
            const std::string where =
                "action " + std::to_string(j) + " (" +
                toString(a.op) + ")";
            if (static_cast<unsigned>(a.op) >= numActionOps) {
                rowMsg(i, where + ": not in the action vocabulary");
                continue;
            }
            if (any && a.op != ActionOp::Bump &&
                a.op != ActionOp::SetLine && a.op != ActionOp::WriteLine)
                rowMsg(i, where + ": an any-state row may only Bump, "
                                  "SetLine or WriteLine");
            switch (a.op) {
              case ActionOp::Bump:
                if (a.arg >= numTableCounters)
                    rowMsg(i, where + ": unknown counter " +
                                  std::to_string(a.arg));
                break;
              case ActionOp::FillLine:
                if (a.arg > maxLineState)
                    rowMsg(i, where + ": unknown line state " +
                                  std::to_string(a.arg));
                else if (a.arg ==
                         static_cast<std::uint8_t>(LineState::Invalid))
                    rowMsg(i, where + ": FillLine(Invalid) — use "
                                      "DropLine to remove a copy");
                break;
              case ActionOp::SetLine:
                if (a.arg > maxLineState)
                    rowMsg(i, where + ": unknown line state " +
                                  std::to_string(a.arg));
                else if (a.arg ==
                         static_cast<std::uint8_t>(LineState::Invalid))
                    rowMsg(i, where + ": SetLine(Invalid) — use "
                                      "DropLine to remove a copy");
                break;
              case ActionOp::SetDirState:
                if (a.arg >= nStates) {
                    rowMsg(i, where + ": undefined target state " +
                                  std::to_string(a.arg));
                } else {
                    sawSetDir = true;
                    lastSetDir = a.arg;
                }
                break;
              case ActionOp::Stall:
                if (j + 1 != r.actions.size())
                    rowMsg(i, where + ": Stall must be the last "
                                      "action of its row");
                break;
              default:
                break;
            }
        }

        // The declared next state must be the one the actions leave in
        // the directory: tables stay honest about their own effects.
        if (sawSetDir) {
            if (lastSetDir != r.next && r.next < nStates)
                rowMsg(i, "declares next state '" +
                              stateName(*this, r.next) +
                              "' but the last SetDirState writes '" +
                              stateName(*this, lastSetDir) + "'");
        } else if (r.next != r.state) {
            rowMsg(i, "changes state without a SetDirState action");
        }
    }
    return msgs;
}

TableProtocol::TableProtocol(const TransitionTable &table,
                             const ProtoConfig &cfg,
                             const std::string &name)
    : Protocol(name.empty() ? table.name : name, cfg),
      table_(table),
      dirs_(makeTwoBitDirectories(cfg.numModules, cfg.dirRamBudget)),
      rowHits_(table.rows.size(), 0)
{
    const auto problems = table_.validate();
    if (!problems.empty()) {
        std::ostringstream os;
        for (const std::string &m : problems)
            os << "\n  " << m;
        DIR2B_FATAL("transition table '", table_.name, "' is invalid:",
                    os.str());
    }
    // The duplicate tag directory of §4.4(a) redirects broadcast
    // deliveries; the shared action implementations model the plain
    // interconnect only.
    DIR2B_ASSERT(!cfg.snoopFilter, "table-driven protocol '",
                 table_.name, "' does not support the snoop filter");

    // Compile the validated table into a dense (state x event-class)
    // dispatch index: each slot lists its candidate rows in
    // declaration order, so findRow() evaluates guards over exactly
    // the rows the linear scan would have reached — same first match,
    // no scan over the rest of the table.  An any-state row fills its
    // event's slot in every state, for Stall retries; a fresh hit runs
    // it inline from localHits_ instead.
    const auto nStates = static_cast<std::uint8_t>(table_.stateNames.size());
    dispatchSlots_.assign(nStates * numEventClasses, {});
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < table_.rows.size(); ++i) {
            const TableRow &r = table_.rows[i];
            const bool any = r.state == anyState;
            const std::uint8_t lo = any ? 0 : r.state;
            const std::uint8_t hi = any ? nStates : r.state + 1;
            for (std::uint8_t s = lo; s < hi; ++s) {
                DispatchSlot &slot = dispatchSlots_[slotIndex(s, r.event)];
                if (pass == 1)
                    dispatchRows_[slot.off + slot.len] =
                        static_cast<std::uint16_t>(i);
                ++slot.len;
            }
            if (any)
                localHits_[static_cast<std::size_t>(r.event)] = &r;
        }
        if (pass == 0) {
            std::uint32_t off = 0;
            for (DispatchSlot &slot : dispatchSlots_) {
                slot.off = off;
                off += slot.len;
                slot.len = 0;
            }
            dispatchRows_.resize(off);
        }
    }
    budgetedDir_ =
        perModuleDirBudget(cfg.dirRamBudget, cfg.numModules) != 0;
}

DirStoreCounters
TableProtocol::dirStoreCounters() const
{
    DirStoreCounters c;
    for (const TwoBitDirectory &d : dirs_)
        c.add(d);
    return c;
}

ProcId
TableProtocol::remoteOwner(Addr a, ProcId k) const
{
    ProcId owner = invalidProc;
    caches_.forEachHolder(a, k, [&](ProcId p) {
        if (owner == invalidProc &&
            caches_.peek(p, a)->state != LineState::Shared)
            owner = p;
    });
    return owner;
}

bool
TableProtocol::guardHolds(TableGuard g, Addr a, ProcId k) const
{
    switch (g) {
      case TableGuard::Always:
        return true;
      case TableGuard::OtherHoldersNone:
        return caches_.otherHolders(a, k) == 0;
      case TableGuard::OtherHoldersSome:
        return caches_.otherHolders(a, k) > 0;
      case TableGuard::OwnerDirty:
      case TableGuard::OwnerClean: {
        const ProcId p = remoteOwner(a, k);
        if (p == invalidProc)
            return false;
        const bool dirty = caches_.peek(p, a)->dirty();
        return g == TableGuard::OwnerDirty ? dirty : !dirty;
      }
    }
    return false;
}

const TableRow *
TableProtocol::findRow(std::uint8_t state, EventClass ev, Addr a,
                       ProcId k) const
{
    if (linearDispatch_) {
        // The pre-index reference path, kept for
        // TableDispatch.IndexedAndLinearDispatchAreEquivalent.
        for (const TableRow &r : table_.rows) {
            if ((r.state == state || r.state == anyState) &&
                r.event == ev &&
                guardHolds(r.guard, a, k))
                return &r;
        }
        return nullptr;
    }
    const DispatchSlot slot = dispatchSlots_[slotIndex(state, ev)];
    for (std::uint32_t i = 0; i < slot.len; ++i) {
        const TableRow &r = table_.rows[dispatchRows_[slot.off + i]];
        if (guardHolds(r.guard, a, k))
            return &r;
    }
    return nullptr;
}

EventClass
TableProtocol::classify(ProcId k, Addr a, bool write, bool touch,
                        CacheLine *&line)
{
    line = caches_.lookup(k, a, touch);
    if (line) {
        if (!write)
            return EventClass::ReadHit;
        return line->dirty() ? EventClass::WriteHitDirty
                             : EventClass::WriteHitClean;
    }
    return write ? EventClass::WriteMiss : EventClass::ReadMiss;
}

namespace
{

/** Per-dispatch interpreter registers. */
struct ExecCtx
{
    ProcId proc = 0;
    Addr addr = 0;
    bool write = false;
    Value wval = 0;
    /** Requester's line (hits), the victim (evictions), or the filled
     *  line after FillLine. */
    CacheLine *line = nullptr;
    /** Block data in flight (ReadMem / owner supplies). */
    Value data = 0;
    bool stalled = false;
};

} // namespace

void
TableProtocol::evictLine(ProcId k, CacheLine &victim)
{
    const Addr olda = victim.addr;
    const EventClass ev = victim.dirty() ? EventClass::EvictDirty
                                         : EventClass::EvictClean;
    dispatch(k, olda, false, 0, ev, &victim, 0);
}

Value
TableProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    CacheLine *line = nullptr;
    const EventClass ev = classify(k, a, write, true, line);

    // Reference classification is the interpreter's, not the table's:
    // every scheme counts hits and misses the same way.
    switch (ev) {
      case EventClass::ReadHit:
        ++counts_.readHits;
        break;
      case EventClass::WriteHitDirty:
        ++counts_.writeHits;
        break;
      case EventClass::WriteHitClean:
        ++counts_.writeHits;
        ++counts_.writeHitsClean;
        break;
      case EventClass::ReadMiss:
        ++counts_.readMisses;
        break;
      case EventClass::WriteMiss:
        ++counts_.writeMisses;
        break;
      default:
        break;
    }

    // An any-state hit touches only the requester's line: no directory
    // read (bar the budget touch), no row search, no action registers.
    const TableRow *hit = localHits_[static_cast<std::size_t>(ev)];
    if (!hit || linearDispatch_)
        return dispatch(k, a, write, wval, ev, line, 0);
    if (budgetedDir_)
        dirFor(a).touch(a);
    ++rowHits_[static_cast<std::size_t>(hit - table_.rows.data())];
    for (const TableAction &act : hit->actions) {
        if (act.op == ActionOp::Bump)
            ++(counts_.*counterFields[act.arg]);
        else if (act.op == ActionOp::SetLine)
            line->state = static_cast<LineState>(act.arg);
        else
            line->value = wval; // WriteLine, the only other one allowed
    }
    return write ? wval : line->value;
}

Value
TableProtocol::dispatch(ProcId k, Addr a, bool write, Value wval,
                        EventClass ev, CacheLine *line, unsigned depth)
{
    // Replacement precedes the miss transaction (§3.2.1): the victim
    // runs through the same eviction rows flushCache uses.
    if (ev == EventClass::ReadMiss || ev == EventClass::WriteMiss) {
        CacheLine &victim = caches_.victimFor(k, a);
        if (victim.valid())
            evictLine(k, victim);
    }

    const std::uint8_t state = dirStateOf(a);
    const TableRow *row = findRow(state, ev, a, k);
    if (!row) {
        DIR2B_FATAL("table '", table_.name, "' has no row for (",
                    stateName(table_, state), ", ", toString(ev),
                    ") at block ", a, " from cache ", k,
                    ": directory/cache disagreement or incomplete "
                    "table");
    }
    ++rowHits_[static_cast<std::size_t>(row - table_.rows.data())];

    ExecCtx ctx;
    ctx.proc = k;
    ctx.addr = a;
    ctx.write = write;
    ctx.wval = wval;
    ctx.line = line;

    for (const TableAction &act : row->actions) {
        switch (act.op) {
          case ActionOp::Bump:
            ++(counts_.*counterFields[act.arg]);
            break;

          case ActionOp::ReadMem:
            ctx.data = mem_.read(ctx.addr);
            ++counts_.memReads;
            break;

          case ActionOp::WritebackLine:
            DIR2B_ASSERT(ctx.line, "WritebackLine with no line");
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(ctx.addr, ctx.line->value);
            ++counts_.memWrites;
            ++counts_.writebacks;
            break;

          case ActionOp::FillLine:
            ctx.line = &caches_.fill(
                k, ctx.addr, static_cast<LineState>(act.arg),
                ctx.write ? ctx.wval : ctx.data);
            break;

          case ActionOp::SetLine:
            DIR2B_ASSERT(ctx.line, "SetLine with no line");
            ctx.line->state = static_cast<LineState>(act.arg);
            break;

          case ActionOp::WriteLine:
            DIR2B_ASSERT(ctx.line, "WriteLine with no line");
            ctx.line->value = ctx.wval;
            break;

          case ActionOp::DropLine:
            caches_.invalidate(k, ctx.addr);
            ctx.line = nullptr;
            break;

          case ActionOp::SetDirState:
            dirFor(ctx.addr).set(ctx.addr,
                                 static_cast<GlobalState>(act.arg));
            ++counts_.setstates;
            break;

          case ActionOp::SendBroadInv:
            broadcastInvalidate(ctx.addr, k);
            break;

          case ActionOp::SendBroadQueryRead:
            ctx.data = broadcastQuery(ctx.addr, k, RW::Read);
            break;

          case ActionOp::SendBroadQueryWrite:
            ctx.data = broadcastQuery(ctx.addr, k, RW::Write);
            break;

          case ActionOp::SendInvHolders:
            caches_.forEachHolder(ctx.addr, k, [&](ProcId p) {
                if (caches_.peek(p, ctx.addr)->dirty())
                    return;
                ++counts_.directedCmds;
                ++counts_.netMessages;
                deliverCmd(p, true);
                caches_.invalidate(p, ctx.addr);
                ++counts_.invalidations;
            });
            break;

          case ActionOp::SendPurgeRead:
          case ActionOp::SendPurgeWrite: {
            const bool isRead = act.op == ActionOp::SendPurgeRead;
            const ProcId owner = remoteOwner(ctx.addr, k);
            DIR2B_ASSERT(owner != invalidProc, "PURGE(", ctx.addr,
                         ") found no owner");
            CacheLine *l = caches_.lookup(owner, ctx.addr, false);
            DIR2B_ASSERT(l && l->dirty(), "owner of ", ctx.addr,
                         " has no dirty copy");
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            ++counts_.purges;
            ctx.data = l->value;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(ctx.addr, ctx.data);
            ++counts_.memWrites;
            ++counts_.writebacks;
            if (isRead) {
                l->state = LineState::Shared;
            } else {
                caches_.invalidate(owner, ctx.addr);
                ++counts_.invalidations;
            }
            break;
          }

          case ActionOp::SendDowngradeOwner: {
            const ProcId owner = remoteOwner(ctx.addr, k);
            DIR2B_ASSERT(owner != invalidProc, "downgrade of ",
                         ctx.addr, " found no owner");
            CacheLine *l = caches_.lookup(owner, ctx.addr, false);
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            ctx.data = l->value;
            // Cache-to-cache supply: no write-back, memory stays as
            // it is — the point of the Owned state.
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            l->state = l->dirty() ? LineState::Owned
                                  : LineState::Shared;
            break;
          }

          case ActionOp::SendFetchInvOwner: {
            const ProcId owner = remoteOwner(ctx.addr, k);
            DIR2B_ASSERT(owner != invalidProc, "fetch-inv of ",
                         ctx.addr, " found no owner");
            CacheLine *l = caches_.lookup(owner, ctx.addr, false);
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            ++counts_.purges;
            ctx.data = l->value;
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            caches_.invalidate(owner, ctx.addr);
            ++counts_.invalidations;
            break;
          }

          case ActionOp::Stall:
            ctx.stalled = true;
            break;
        }
        if (ctx.stalled)
            break;
    }

    if (ctx.stalled) {
        DIR2B_ASSERT(depth < 8, "table '", table_.name,
                     "' stalled 8 times on block ", a,
                     " from cache ", k, ": transition livelock");
        CacheLine *retryLine = nullptr;
        const EventClass retry =
            classify(k, a, write, false, retryLine);
        return dispatch(k, a, write, wval, retry, retryLine,
                        depth + 1);
    }

    if (write)
        return wval;
    if (ev == EventClass::ReadHit) {
        DIR2B_ASSERT(ctx.line, "read hit lost its line");
        return ctx.line->value;
    }
    return ctx.data;
}

void
TableProtocol::flushCache(ProcId p)
{
    DIR2B_ASSERT(table_.handlesEvict(), "table '", table_.name,
                 "' has no eviction rows: flush unsupported");
    // Collect first: eviction mutates the array under iteration.
    std::vector<CacheLine> lines;
    caches_.forEachValid(
        p, [&](const CacheLine &l) { lines.push_back(l); });
    for (CacheLine &l : lines)
        evictLine(p, l);
}

void
TableProtocol::checkInvariants() const
{
    // Census every cached block, then check the per-state bounds the
    // table declares.  This is the generic form of the hand-written
    // schemes' directory-vs-cache cross-checks.
    std::unordered_map<Addr, std::pair<std::size_t, std::size_t>> seen;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_.forEachValid(p, [&](const CacheLine &l) {
            auto &[holders, modified] = seen[l.addr];
            ++holders;
            if (l.dirty())
                ++modified;
        });
    }
    for (const auto &[a, hm] : seen) {
        const auto [holders, modified] = hm;
        const std::uint8_t st = dirStateOf(a);
        DIR2B_ASSERT(st < table_.stateNames.size(),
                     "block ", a, " has directory state ",
                     static_cast<unsigned>(st), " outside table '",
                     table_.name, "'");
        const StateConstraint &c = table_.constraints[st];
        DIR2B_ASSERT(holders >= c.minHolders &&
                         holders <= c.maxHolders,
                     "block ", a, " is ", stateName(table_, st),
                     " but has ", holders, " holder(s)");
        DIR2B_ASSERT(modified >= c.minModified &&
                         modified <= c.maxModified,
                     "block ", a, " is ", stateName(table_, st),
                     " but has ", modified, " modified cop(y/ies)");
    }
}

} // namespace dir2b
