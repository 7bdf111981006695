/**
 * @file
 * Table-driven coherence protocol interpreter.
 *
 * ROADMAP item 1: protocols as data, not code.  A TransitionTable is a
 * list of rows (state, event class, guard) -> (ordered action list,
 * next state) over a fixed action vocabulary, in the style of
 * BlackParrot's BedRock microcode engine (arXiv:2211.06390) and the
 * Guarded Action Language coherence models (arXiv:1803.10323).  The
 * TableProtocol interpreter executes any validated table as a
 * functional-tier Protocol, so a new scheme is a new table — the
 * exhaustive explorer can enumerate its rows directly, the
 * differential fuzzer gets cross-interpreter lockstep for free, and
 * the §4.2 command accounting comes from the shared action
 * implementations instead of per-scheme bespoke code.
 *
 * The table's state is the per-block directory state, stored in the
 * same TwoBitDirectory tiered store as the paper's scheme (at most
 * four states, the economy constraint of the title); holder sets and
 * owners are read from the CacheBank's holder index, which is the
 * functional tier's model of whatever presence bits the scheme would
 * keep in hardware (dirBitsFixed/dirBitsPerProc report the true cost).
 * Holder-count guards are a popcount and owner searches walk only the
 * holders, never all n caches.
 *
 * A hit row may fire in every state (anyState): such a row can only
 * touch the requester's own line, so the interpreter runs it without
 * reading the directory, searching the rows or entering the action
 * loop.  Under a directory RAM budget it still touches the block's
 * directory page, because the store's clock observes every read the
 * per-state rows would have made.
 *
 * Bit-identity contract: the two_bit table in proto/table_defs.cc
 * reproduces the hand-written two_bit scheme *exactly* — every counter
 * bump, every deliverCmd, every replacement-policy touch in the same
 * order — which the lockstep differ (check/differ.hh) enforces access
 * by access.  The full-map table is the only full map: the factory
 * registers it as full_map and full_map_table, and under Tang's
 * derived accounting (proto/dup_dir.hh) as dup_dir.
 */

#ifndef DIR2B_PROTO_TABLE_ENGINE_HH
#define DIR2B_PROTO_TABLE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/protocol.hh"

namespace dir2b
{

/** How the interpreter classifies one transaction (or sub-event). */
enum class EventClass : std::uint8_t
{
    ReadHit,        ///< LOAD, requester holds a valid copy
    WriteHitDirty,  ///< STORE, requester's copy is already modified
    WriteHitClean,  ///< STORE, requester's copy is clean (§3.2.4)
    ReadMiss,       ///< LOAD, no copy (§3.2.2)
    WriteMiss,      ///< STORE, no copy (§3.2.3)
    EvictClean,     ///< replacement/flush of a clean victim (§3.2.1)
    EvictDirty,     ///< replacement/flush of a modified victim
};

constexpr unsigned numEventClasses = 7;

/** Row guard, evaluated against the block the event addresses.
 *  Rows matching (state, event) are tried in declaration order; the
 *  first whose guard holds fires. */
enum class TableGuard : std::uint8_t
{
    /** Matches unconditionally. */
    Always,
    /** No cache other than the requester holds a valid copy. */
    OtherHoldersNone,
    /** At least one other cache holds a valid copy. */
    OtherHoldersSome,
    /** The (unique) remote owner copy is dirty (M/O). */
    OwnerDirty,
    /** The remote owner copy is clean (Exclusive). */
    OwnerClean,
};

/** §4.2 counters a row may bump explicitly (Bump action argument).
 *  Compound actions (ReadMem, WritebackLine, the Send* family) bump
 *  their own counters internally, exactly as the hand-written
 *  protocols do. */
enum class TableCounter : std::uint8_t
{
    Requests,       ///< REQUEST commands issued
    MRequests,      ///< MREQUEST commands issued
    Ejects,         ///< EJECT notifications issued
    NetMessages,    ///< point-to-point deliveries
    DataTransfers,  ///< get/put block movements
    Invalidations,  ///< cache copies invalidated
    Purges,         ///< owner downgrades/flushes
};

constexpr unsigned numTableCounters = 7;

/** The fixed action vocabulary. */
enum class ActionOp : std::uint8_t
{
    /** Bump one §4.2 counter (arg = TableCounter). */
    Bump,
    /** data := memory[a]; counts a memory read. */
    ReadMem,
    /** Write the current line's (victim's) dirty data back to memory:
     *  put + memory write (dataTransfers, netMessages, memWrites,
     *  writebacks). */
    WritebackLine,
    /** Fill the requester's cache with the block (arg = LineState);
     *  data for loads, the store value for writes.  Counts nothing —
     *  precede with Bump(DataTransfers)/Bump(NetMessages) for the
     *  get(k,a). */
    FillLine,
    /** Rewrite the current line's local state (arg = LineState). */
    SetLine,
    /** line.value := the store value (the paper's st(a,b_k)). */
    WriteLine,
    /** Invalidate the current block in the requester's cache. */
    DropLine,
    /** SETSTATE(a, arg): update the 2-bit map entry and count it. */
    SetDirState,
    /** BROADINV(a, k): broadcast to the n-1 other caches, invalidate
     *  every (clean) copy found; useless deliveries counted. */
    SendBroadInv,
    /** BROADQUERY(a, "read"): the dirty owner puts the block, memory
     *  is written back, the owner keeps a clean Shared copy. */
    SendBroadQueryRead,
    /** BROADQUERY(a, "write"): as above but the owner invalidates. */
    SendBroadQueryWrite,
    /** Directed INVALIDATE(a, p) to every other cache holding a clean
     *  copy (ascending p); always useful. */
    SendInvHolders,
    /** Directed PURGE(a, owner, "read"): owner puts + write-back,
     *  keeps a clean Shared copy. */
    SendPurgeRead,
    /** Directed PURGE(a, owner, "write"): owner puts + write-back,
     *  then invalidates. */
    SendPurgeWrite,
    /** Directed downgrade of the remote owner: cache-to-cache supply
     *  (no write-back); a dirty owner becomes Owned, a clean
     *  (Exclusive) owner becomes Shared. */
    SendDowngradeOwner,
    /** Directed fetch-and-invalidate of the remote owner:
     *  cache-to-cache supply (no write-back), owner drops its copy. */
    SendFetchInvOwner,
    /** Re-classify the access and dispatch again (transient-state
     *  retry).  Must be the last action of its row; the interpreter
     *  bounds retries and fatals on livelock. */
    Stall,
};

constexpr unsigned numActionOps = 17;

/** TableRow::state (and next) of a row that fires in every directory
 *  state.  Only hit rows qualify, with an Always guard and line-local
 *  actions (Bump, SetLine, WriteLine), and no per-state row may share
 *  the event class (validated).  describeRow() prints it as "*". */
constexpr std::uint8_t anyState = 0xff;

/** One action: opcode plus its immediate argument. */
struct TableAction
{
    ActionOp op = ActionOp::Bump;
    std::uint8_t arg = 0;
};

/** One transition row. */
struct TableRow
{
    /** Directory state this row fires in (index into stateNames),
     *  or anyState. */
    std::uint8_t state = 0;
    EventClass event = EventClass::ReadHit;
    TableGuard guard = TableGuard::Always;
    /** Executed in order. */
    std::vector<TableAction> actions;
    /** Directory state after the row: must equal the argument of the
     *  row's last SetDirState action, or `state` when there is none
     *  (so anyState for an any-state row; validated). */
    std::uint8_t next = 0;
};

/** Structural invariant bounds for one directory state, checked by
 *  TableProtocol::checkInvariants() and the explorer. */
struct StateConstraint
{
    std::size_t minHolders = 0;
    std::size_t maxHolders = SIZE_MAX;
    std::size_t minModified = 0;
    std::size_t maxModified = 0;
};

/** A complete declarative protocol. */
struct TransitionTable
{
    /** Table name ("two_bit_table", ...): the scheme name unless the
     *  factory registers the table under another. */
    std::string name;
    /** Directory state names; at most 4 (the two-bit economy bound),
     *  index 0 is the initial (uncached) state. */
    std::vector<std::string> stateNames;
    /** Per-state structural bounds (same size as stateNames). */
    std::vector<StateConstraint> constraints;
    std::vector<TableRow> rows;
    /** Directory storage cost metadata: bits per block =
     *  dirBitsFixed + dirBitsPerProc * n. */
    unsigned dirBitsFixed = 2;
    unsigned dirBitsPerProc = 0;

    /** All structural problems, as "row N: ..." messages; empty means
     *  the table is executable. */
    std::vector<std::string> validate() const;

    /** Whether any row handles an eviction event — this is what makes
     *  replacement (and therefore flushCache) executable, so
     *  Protocol::supportsFlush() is answered from here. */
    bool handlesEvict() const;
};

/** Render row `i` of `t` as "(state, event, guard) -> next" for
 *  diagnostics and coverage reports. */
std::string describeRow(const TransitionTable &t, std::size_t i);

std::string toString(EventClass e);
std::string toString(TableGuard g);
std::string toString(ActionOp op);

/**
 * The interpreter: executes any validated TransitionTable as a
 * functional-tier Protocol.  Directory state lives in per-module
 * TwoBitDirectory tiered stores, so table-driven schemes compose with
 * --dir-ram-budget and report dirStoreCounters() with zero
 * scheme-specific code.
 */
class TableProtocol : public Protocol
{
  public:
    /** Fatals (with every validation message) on an invalid table.
     *  `name` is the name the scheme is registered under (one table
     *  may back several schemes); empty means the table's own. */
    TableProtocol(const TransitionTable &table, const ProtoConfig &cfg,
                  const std::string &name = {});

    unsigned
    directoryBitsPerBlock() const override
    {
        return table_.dirBitsFixed +
               table_.dirBitsPerProc * cfg_.numProcs;
    }

    DirStoreCounters dirStoreCounters() const override;

    /** Generic: census every cached block against the per-state
     *  constraints; panics on violation. */
    void checkInvariants() const override;

    /** Executable whenever the table has eviction rows: each valid
     *  line is ejected through the same rows replacement uses. */
    void flushCache(ProcId p) override;
    bool supportsFlush() const override { return table_.handlesEvict(); }

    /** Directory state of block a (index into table().stateNames). */
    std::uint8_t
    dirStateOf(Addr a) const
    {
        return static_cast<std::uint8_t>(dirFor(a).get(a));
    }

    const TransitionTable &table() const { return table_; }

    /** Fire count per table row (row coverage; the explorer unions
     *  these to report unreachable rows). */
    const std::vector<std::uint64_t> &rowHits() const { return rowHits_; }

    /**
     * True falls back to the pre-index linear row scan, the reference
     * that TableDispatch.IndexedAndLinearDispatchAreEquivalent holds
     * the dense index and the inline hit path to.  Both paths fire the
     * same row for every (state, event, guard) query — the index only
     * skips rows that could never match — and the linear one reads the
     * directory state on every hit.
     */
    void useLinearDispatch(bool on) { linearDispatch_ = on; }

  protected:
    Value doAccess(ProcId k, Addr a, bool write, Value wval) override;

  private:
    TwoBitDirectory &dirFor(Addr a) { return dirs_[addrMap_.home(a)]; }
    const TwoBitDirectory &
    dirFor(Addr a) const
    {
        return dirs_[addrMap_.home(a)];
    }

    /** The remote owner of `a`: the unique other holder whose copy is
     *  not merely Shared (E/M/O), or invalidProc. */
    ProcId remoteOwner(Addr a, ProcId k) const;

    bool guardHolds(TableGuard g, Addr a, ProcId k) const;
    const TableRow *findRow(std::uint8_t state, EventClass ev, Addr a,
                            ProcId k) const;

    /** Classify a LOAD/STORE by `k` against its cache (touches
     *  replacement state exactly like the hand-written schemes:
     *  only the initial classification touches). */
    EventClass classify(ProcId k, Addr a, bool write, bool touch,
                        CacheLine *&line);

    /** Dispatch one event; returns the transaction's result value.
     *  `depth` bounds Stall retries. */
    Value dispatch(ProcId k, Addr a, bool write, Value wval,
                   EventClass ev, CacheLine *line, unsigned depth);

    /** Run the eviction rows for a valid victim line. */
    void evictLine(ProcId k, CacheLine &victim);

    std::size_t
    slotIndex(std::uint8_t state, EventClass ev) const
    {
        return std::size_t{state} * numEventClasses +
               static_cast<std::size_t>(ev);
    }

    /** One (state, event-class) slot of the dispatch index: a span of
     *  candidate row ids in dispatchRows_, declaration-ordered. */
    struct DispatchSlot
    {
        std::uint32_t off = 0;
        std::uint32_t len = 0;
    };

    TransitionTable table_;
    std::vector<TwoBitDirectory> dirs_;
    std::vector<std::uint64_t> rowHits_;
    /** Dense (state x event-class) first-row index, compiled at
     *  registration from the validated table. */
    std::vector<DispatchSlot> dispatchSlots_;
    std::vector<std::uint16_t> dispatchRows_;
    /** Per event class, its any-state row or null: run inline. */
    const TableRow *localHits_[numEventClasses] = {};
    /** Whether the directories have a RAM budget, so that a hit must
     *  touch its directory page. */
    bool budgetedDir_ = false;
    bool linearDispatch_ = false;
};

} // namespace dir2b

#endif // DIR2B_PROTO_TABLE_ENGINE_HH
