/**
 * @file
 * Cache directory duplication (Tang 1976; paper §2.4.1).
 *
 * A *central* memory controller holds a duplicate of every cache's tag
 * directory.  The information content equals the full map — the holder
 * set is always exactly known, so commands are directed and never
 * useless — but the organisation differs in two measurable ways:
 *
 *  1. every global-state query must search all n duplicate directories
 *     (counted as dirSearches; in hardware this is the processing-power
 *     problem the paper highlights);
 *  2. every cache directory change (fill, invalidation, eviction,
 *     state change) must be transmitted to the central controller to
 *     keep its duplicates current (counted as dirUpdates; this is the
 *     controller-bottleneck traffic).
 *
 * So the scheme is the full-map table plus accounting derived from
 * each transaction's counter delta.  The controller is consulted once
 * per clean write hit, miss and eject, t of them, and each consultation
 * searches n duplicates.  Every such event also changes one cache
 * directory, as does every directed command (an INVALIDATE or PURGE):
 *
 *   dirSearches += n * t
 *   dirUpdates  += directedCmds + t
 *   netMessages += directedCmds + t
 *
 * In the timed tier the central controller also serialises *all*
 * requests (no per-module distribution is possible), which is the
 * paper's expansibility objection.
 */

#ifndef DIR2B_PROTO_DUP_DIR_HH
#define DIR2B_PROTO_DUP_DIR_HH

#include "proto/table_defs.hh"

namespace dir2b
{

/** Functional-tier Tang duplicated-directory protocol.  The duplicates
 *  encode one presence bit per cache plus the modified bit per cached
 *  block, so the table's n+1 bits per block stand as its cost. */
class DupDirProtocol : public TableProtocol
{
  public:
    explicit DupDirProtocol(const ProtoConfig &cfg)
        : TableProtocol(fullMapTable(), cfg, "dup_dir")
    {}

    void
    flushCache(ProcId p) override
    {
        TableProtocol::flushCache(p);
        addTangTraffic();
    }

  protected:
    Value
    doAccess(ProcId k, Addr a, bool write, Value wval) override
    {
        const Value v = TableProtocol::doAccess(k, a, write, wval);
        addTangTraffic();
        return v;
    }

  private:
    /** Charge the controller traffic of the events counted since the
     *  last call: t consultations and the directed commands. */
    void
    addTangTraffic()
    {
        const std::uint64_t consults = counts_.writeHitsClean +
                                       counts_.readMisses +
                                       counts_.writeMisses + counts_.ejects;
        const std::uint64_t t = consults - consults_;
        const std::uint64_t updates =
            counts_.directedCmds - directed_ + t;
        consults_ = consults;
        directed_ = counts_.directedCmds;
        counts_.dirSearches += cfg_.numProcs * t;
        counts_.dirUpdates += updates;
        counts_.netMessages += updates;
    }

    /** Consultations and directed commands already charged. */
    std::uint64_t consults_ = 0;
    std::uint64_t directed_ = 0;
};

} // namespace dir2b

#endif // DIR2B_PROTO_DUP_DIR_HH
