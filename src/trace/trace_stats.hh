/**
 * @file
 * Reference-stream analysis.
 *
 * Computes, from any trace or recorded stream, the parameters the
 * paper's models need: the shared-reference fraction q, the shared
 * write fraction w, per-processor balance, block popularity and the
 * degree of read/write sharing (how many distinct processors touch or
 * write each block).  dir2bsim exposes this as --analyze, and it is
 * how a user fits Table 4-1's model to their own workload.
 */

#ifndef DIR2B_TRACE_TRACE_STATS_HH
#define DIR2B_TRACE_TRACE_STATS_HH

#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "trace/reference.hh"

namespace dir2b
{

/** Aggregate statistics of one reference sequence. */
struct TraceStats
{
    std::uint64_t refs = 0;
    std::uint64_t writes = 0;
    std::uint64_t sharedRefs = 0;   ///< refs at/above sharedRegionBase
    std::uint64_t sharedWrites = 0;
    std::uint64_t distinctBlocks = 0;
    /** Blocks referenced by >= 2 distinct processors. */
    std::uint64_t readSharedBlocks = 0;
    /** Blocks written by one processor and touched by another —
     *  the references that *require* a coherence mechanism. */
    std::uint64_t writeSharedBlocks = 0;
    /** References per processor. */
    std::vector<std::uint64_t> perProc;
    /** Largest single-block share of all references. */
    double hottestBlockFrac = 0.0;

    /** The model's q, as realised by this trace. */
    double
    q() const
    {
        return refs ? static_cast<double>(sharedRefs) / refs : 0.0;
    }

    /** The model's w, as realised by this trace. */
    double
    w() const
    {
        return sharedRefs
                   ? static_cast<double>(sharedWrites) / sharedRefs
                   : 0.0;
    }

    /** Overall write fraction. */
    double
    writeFrac() const
    {
        return refs ? static_cast<double>(writes) / refs : 0.0;
    }
};

class TraceReader;

/**
 * Incremental accumulator behind analyzeTrace: add() one reference at
 * a time (any order of calls a trace delivers), finish() to close the
 * per-block aggregation.  Lets the mmap reader stream statistics over
 * billion-reference traces without materialising a MemRef vector.
 */
class TraceStatsBuilder
{
  public:
    void add(ProcId proc, Addr addr, bool write);
    TraceStats finish() const;

  private:
    struct BlockInfo
    {
        std::uint64_t refs = 0;
        bool manyTouchers = false;
        bool manyWriters = false;
        ProcId firstToucher = invalidProc;
        ProcId firstWriter = invalidProc;
    };

    TraceStats partial_;
    std::unordered_map<Addr, BlockInfo> blocks_;
};

/** Analyse a recorded reference sequence. */
TraceStats analyzeTrace(const std::vector<MemRef> &refs);

/** Analyse the first `maxRefs` records of a binary trace (all of
 *  them by default) block by block, zero-copy. */
TraceStats analyzeTrace(const TraceReader &reader,
                        std::uint64_t maxRefs = ~std::uint64_t{0});

/** Human-readable report. */
void printTraceStats(std::ostream &os, const TraceStats &s);

} // namespace dir2b

#endif // DIR2B_TRACE_TRACE_STATS_HH
