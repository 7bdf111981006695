#include "proto/table_defs.hh"

namespace dir2b
{
namespace
{

// Row-building shorthand: tables should read like the paper's case
// analysis, not like C++.
using E = EventClass;
using G = TableGuard;
using C = TableCounter;

TableAction
bump(C c)
{
    return {ActionOp::Bump, static_cast<std::uint8_t>(c)};
}

TableAction
act(ActionOp op)
{
    return {op, 0};
}

TableAction
fill(LineState s)
{
    return {ActionOp::FillLine, static_cast<std::uint8_t>(s)};
}

TableAction
setLine(LineState s)
{
    return {ActionOp::SetLine, static_cast<std::uint8_t>(s)};
}

TableAction
setDir(std::uint8_t s)
{
    return {ActionOp::SetDirState, s};
}

TableRow
row(std::uint8_t state, E ev, std::vector<TableAction> actions,
    std::uint8_t next)
{
    return {state, ev, G::Always, std::move(actions), next};
}

TableRow
rowIf(std::uint8_t state, E ev, G guard,
      std::vector<TableAction> actions, std::uint8_t next)
{
    return {state, ev, guard, std::move(actions), next};
}

/** Exactly-one-holder, clean. */
constexpr StateConstraint one{1, 1, 0, 0};
/** Any number of clean holders (broadcast schemes cannot count down). */
constexpr StateConstraint anyClean{0, SIZE_MAX, 0, 0};
/** At least one holder, all clean. */
constexpr StateConstraint someClean{1, SIZE_MAX, 0, 0};
/** No holders at all. */
constexpr StateConstraint none{0, 0, 0, 0};
/** Exactly one holder, modified. */
constexpr StateConstraint oneDirty{1, 1, 1, 1};

TransitionTable
buildTwoBit()
{
    // States are the §3.1 global states, indices = GlobalState values.
    enum : std::uint8_t { A, P1, PS, PM };
    TransitionTable t;
    t.name = "two_bit_table";
    t.stateNames = {"Absent", "Present1", "Present*", "PresentM"};
    t.constraints = {none, one, anyClean, oneDirty};
    t.dirBitsFixed = 2;
    t.dirBitsPerProc = 0;
    t.rows = {
        // A read hit, or a write hit on a dirty copy (only PresentM
        // has one), is local in every state: the interpreter runs it
        // without reading the directory, except to touch a budgeted
        // directory's page as the read would.
        row(anyState, E::ReadHit, {}, anyState),
        row(anyState, E::WriteHitDirty, {act(ActionOp::WriteLine)},
            anyState),

        // §3.2.4 write hit on a clean copy: MREQUEST + MGRANTED;
        // Present1 grants without a broadcast (the payoff of keeping
        // Present1 distinct), Present* must BROADINV first.
        row(P1, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), setDir(PM),
             setLine(LineState::Modified), act(ActionOp::WriteLine)},
            PM),
        row(PS, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendBroadInv),
             setDir(PM), setLine(LineState::Modified),
             act(ActionOp::WriteLine)},
            PM),

        // §3.2.2 read miss: REQUEST, then memory or BROADQUERY.
        row(A, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(P1),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            P1),
        row(P1, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),
        row(PS, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),
        row(PM, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadQueryRead), setDir(PS),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            PS),

        // §3.2.3 write miss.
        row(A, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(PM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            PM),
        row(P1, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadInv), act(ActionOp::ReadMem),
             setDir(PM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            PM),
        row(PS, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadInv), act(ActionOp::ReadMem),
             setDir(PM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            PM),
        row(PM, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendBroadQueryWrite), setDir(PM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            PM),

        // §3.2.1 replacement: only Present1 can be reclaimed on a
        // clean eject (Present* cannot count down, footnote 2).
        row(P1, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages), setDir(A),
             act(ActionOp::DropLine)},
            A),
        row(PS, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::DropLine)},
            PS),
        row(PM, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(A),
             act(ActionOp::DropLine)},
            A),
    };
    return t;
}

TransitionTable
buildFullMap()
{
    // The n+1-bit map's 2-bit summary: presence bits are modelled by
    // the cache arrays themselves (SendInvHolders/SendPurge* derive
    // the exact holder set); dirBitsPerProc reports the true cost.
    enum : std::uint8_t { U, S, M };
    TransitionTable t;
    t.name = "full_map_table";
    t.stateNames = {"Uncached", "Shared", "Modified"};
    t.constraints = {none, someClean, oneDirty};
    t.dirBitsFixed = 1;   // the modified bit
    t.dirBitsPerProc = 1; // one presence bit per cache
    t.rows = {
        // Local hits, as in two_bit (a dirty copy implies Modified).
        row(anyState, E::ReadHit, {}, anyState),
        row(anyState, E::WriteHitDirty, {act(ActionOp::WriteLine)},
            anyState),

        // Write hit on a clean copy: directed INVALIDATEs to the
        // exactly-known other holders, no broadcast ever.
        row(S, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendInvHolders),
             setDir(M), setLine(LineState::Modified),
             act(ActionOp::WriteLine)},
            M),

        row(U, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        row(S, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        row(M, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendPurgeRead), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),

        row(U, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(M),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            M),
        row(S, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendInvHolders), act(ActionOp::ReadMem),
             setDir(M), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            M),
        row(M, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendPurgeWrite), setDir(M),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            M),

        // Replacement: the map tracks every holder exactly, so each
        // eject updates the presence bits (one SETSTATE, always).
        rowIf(S, E::EvictClean, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages), setDir(U),
               act(ActionOp::DropLine)},
              U),
        rowIf(S, E::EvictClean, G::Always,
              {bump(C::Ejects), bump(C::NetMessages), setDir(S),
               act(ActionOp::DropLine)},
              S),
        row(M, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(U),
             act(ActionOp::DropLine)},
            U),
    };
    return t;
}

TransitionTable
buildMoesi()
{
    // Directory MOESI: E and M share one directory state (a silent
    // E->M upgrade is invisible to the home node), the fourth state is
    // Owned — a dirty owner coexisting with clean sharers, supplying
    // the block cache-to-cache with no write-back on read misses.
    // Four states, so the 2-bit economy still holds at the directory;
    // the owner/sharer distinction lives in the caches' line states.
    enum : std::uint8_t { I, S, EM, O };
    TransitionTable t;
    t.name = "moesi";
    t.stateNames = {"Invalid", "Shared", "ExclMod", "Owned"};
    t.constraints = {none, someClean, {1, 1, 0, 1}, {1, SIZE_MAX, 1, 1}};
    t.dirBitsFixed = 2;   // four directory states
    t.dirBitsPerProc = 1; // presence bits for directed commands
    t.rows = {
        row(S, E::ReadHit, {}, S),
        row(EM, E::ReadHit, {}, EM),
        row(O, E::ReadHit, {}, O),

        row(EM, E::WriteHitDirty, {act(ActionOp::WriteLine)}, EM),
        // The owner writes again: reclaim exclusivity from the
        // sharers (directed), silently when none remain.
        rowIf(O, E::WriteHitDirty, G::OtherHoldersSome,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), act(ActionOp::SendInvHolders),
               setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),
        rowIf(O, E::WriteHitDirty, G::Always,
              {setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),

        // Silent E->M upgrade: the MOESI payoff for Exclusive.
        row(EM, E::WriteHitClean,
            {setLine(LineState::Modified), act(ActionOp::WriteLine)},
            EM),
        rowIf(S, E::WriteHitClean, G::OtherHoldersSome,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), act(ActionOp::SendInvHolders),
               setDir(EM), setLine(LineState::Modified),
               act(ActionOp::WriteLine)},
              EM),
        rowIf(S, E::WriteHitClean, G::Always,
              {bump(C::MRequests), bump(C::NetMessages),
               bump(C::NetMessages), setDir(EM),
               setLine(LineState::Modified), act(ActionOp::WriteLine)},
              EM),
        // A sharer writes while a dirty owner exists: fetch-inv the
        // owner (our clean copy already holds the same data — the
        // invariant the checker enforces), invalidate the rest.
        row(O, E::WriteHitClean,
            {bump(C::MRequests), bump(C::NetMessages),
             bump(C::NetMessages), act(ActionOp::SendFetchInvOwner),
             act(ActionOp::SendInvHolders), setDir(EM),
             setLine(LineState::Modified), act(ActionOp::WriteLine)},
            EM),

        // Read misses: first reader gets Exclusive; a dirty owner
        // supplies cache-to-cache and becomes Owned (no write-back).
        row(I, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Exclusive)},
            EM),
        row(S, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(S),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            S),
        rowIf(EM, E::ReadMiss, G::OwnerDirty,
              {bump(C::Requests), bump(C::NetMessages),
               act(ActionOp::SendDowngradeOwner), setDir(O),
               bump(C::DataTransfers), bump(C::NetMessages),
               fill(LineState::Shared)},
              O),
        rowIf(EM, E::ReadMiss, G::Always,
              {bump(C::Requests), bump(C::NetMessages),
               act(ActionOp::SendDowngradeOwner), setDir(S),
               bump(C::DataTransfers), bump(C::NetMessages),
               fill(LineState::Shared)},
              S),
        row(O, E::ReadMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendDowngradeOwner), setDir(O),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Shared)},
            O),

        // Write misses: fetch-inv any owner cache-to-cache, directed
        // invalidates for sharers, never a broadcast.
        row(I, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::ReadMem), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),
        row(S, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendInvHolders), act(ActionOp::ReadMem),
             setDir(EM), bump(C::DataTransfers),
             bump(C::NetMessages), fill(LineState::Modified)},
            EM),
        row(EM, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendFetchInvOwner), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),
        row(O, E::WriteMiss,
            {bump(C::Requests), bump(C::NetMessages),
             act(ActionOp::SendFetchInvOwner),
             act(ActionOp::SendInvHolders), setDir(EM),
             bump(C::DataTransfers), bump(C::NetMessages),
             fill(LineState::Modified)},
            EM),

        // Replacement.  An evicting owner with live sharers writes
        // back and leaves them Shared (memory is current again).
        rowIf(S, E::EvictClean, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages), setDir(I),
               act(ActionOp::DropLine)},
              I),
        rowIf(S, E::EvictClean, G::Always,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::DropLine)},
              S),
        row(EM, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages), setDir(I),
             act(ActionOp::DropLine)},
            I),
        row(O, E::EvictClean,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::DropLine)},
            O),
        row(EM, E::EvictDirty,
            {bump(C::Ejects), bump(C::NetMessages),
             act(ActionOp::WritebackLine), setDir(I),
             act(ActionOp::DropLine)},
            I),
        rowIf(O, E::EvictDirty, G::OtherHoldersNone,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::WritebackLine), setDir(I),
               act(ActionOp::DropLine)},
              I),
        rowIf(O, E::EvictDirty, G::Always,
              {bump(C::Ejects), bump(C::NetMessages),
               act(ActionOp::WritebackLine), setDir(S),
               act(ActionOp::DropLine)},
              S),
    };
    return t;
}

} // namespace

const TransitionTable &
twoBitTable()
{
    static const TransitionTable t = buildTwoBit();
    return t;
}

const TransitionTable &
fullMapTable()
{
    static const TransitionTable t = buildFullMap();
    return t;
}

const TransitionTable &
moesiTable()
{
    static const TransitionTable t = buildMoesi();
    return t;
}

} // namespace dir2b
