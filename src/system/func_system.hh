/**
 * @file
 * Functional-tier system runner.
 *
 * Drives a Protocol with a RefStream, optionally checking the
 * coherence oracle and the protocol's structural invariants, and
 * measures the quantities the paper's model is parameterised by:
 * the realised shared-reference fraction q, shared write fraction w,
 * shared-block hit ratio h, and the time-average occupancies of the
 * four global states P(P1), P(P*), P(PM) over the shared region —
 * which bench_sim_validation feeds back into the §4.2 closed form to
 * cross-check the measured broadcast overhead.
 */

#ifndef DIR2B_SYSTEM_FUNC_SYSTEM_HH
#define DIR2B_SYSTEM_FUNC_SYSTEM_HH

#include <array>
#include <cstdint>

#include "check/oracle.hh"
#include "core/global_state.hh"
#include "proto/protocol.hh"
#include "trace/reference.hh"

namespace dir2b
{

class TelemetrySampler;

/** Knobs of one functional run. */
struct RunOptions
{
    /** Number of references to execute. */
    std::uint64_t numRefs = 100000;
    /** Verify every read against the last-writer oracle. */
    bool checkCoherence = true;
    /** Call Protocol::checkInvariants() and the holder-index
     *  cross-check every N references (0 = off). */
    std::uint64_t invariantEvery = 0;
    /** Sample global-state occupancy every N references (0 = off). */
    std::uint64_t sampleEvery = 0;
    /** Extent of the shared region for occupancy sampling. */
    std::size_t sharedBlocks = 0;
    /** Optional time-series sampler (obs/telemetry.hh), snapshotting
     *  every sampler->interval() completed references.  The caller
     *  registers metrics (system/func_telemetry.hh) before the run.
     *  Sampling never perturbs results. */
    TelemetrySampler *sampler = nullptr;
};

/** Measurements of one functional run. */
struct RunResult
{
    AccessCounts counts;

    // Realised model parameters over the shared region.
    std::uint64_t sharedRefs = 0;
    std::uint64_t sharedWrites = 0;
    std::uint64_t sharedHits = 0;

    /** Time-average occupancy of each GlobalState over the shared
     *  blocks (two-bit protocols only; zeros otherwise). */
    std::array<double, 4> stateOccupancy{};
    std::uint64_t stateSamples = 0;

    /** Average over caches of useless commands received per own
     *  reference — the quantity Table 4-1 reports as (n-1)*T_SUM. */
    double perCacheUselessPerRef = 0.0;

    double measuredQ(std::uint64_t total) const
    {
        return total ? static_cast<double>(sharedRefs) / total : 0.0;
    }
    double
    measuredW() const
    {
        return sharedRefs ? static_cast<double>(sharedWrites) /
                                sharedRefs
                          : 0.0;
    }
    double
    measuredH() const
    {
        return sharedRefs ? static_cast<double>(sharedHits) /
                                sharedRefs
                          : 0.0;
    }
};

/** Execute a run; fatal/panic on any coherence or invariant failure. */
RunResult runFunctional(Protocol &proto, RefStream &stream,
                        const RunOptions &opts);

class TraceBatchStream;

/**
 * Batched replay frontend: execute a run from whole record blocks of
 * an mmap'ed binary trace (trace/trace_binary.hh), dispatching each
 * AccessBatch span through one tight loop instead of the per-record
 * virtual stream path.  Semantics (oracle, invariants, sampling,
 * counters) are shared with runFunctional — replaying the trace that
 * recorded a stream yields bit-identical results.
 */
RunResult runFunctionalBatched(Protocol &proto, TraceBatchStream &batches,
                               const RunOptions &opts);

} // namespace dir2b

#endif // DIR2B_SYSTEM_FUNC_SYSTEM_HH
