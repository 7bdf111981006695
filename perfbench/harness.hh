/**
 * @file
 * Shared pieces of the dir2b benchmark program: the span clock, the
 * outcome of one repetition of a workload, and the tallies and digest
 * over simulated statistics.
 *
 * The program measures every layer from outside, by timing calls into
 * the layer's public functions.  Nothing here reaches into src/.
 */

#ifndef DIR2B_PERFBENCH_HARNESS_HH
#define DIR2B_PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "proto/protocol.hh"
#include "system/func_system.hh"
#include "timed/timed_system.hh"

namespace dir2b
{
namespace perfbench
{

/** Host wall clock, in seconds. */
inline double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Raw span timestamp.  On x86-64 it is the TSC, which costs a few ns
 * per read: cheap enough to stamp every layer boundary of every
 * reference.  Elsewhere it is steady_clock in ns.  Spans are only ever
 * used as shares of a steady_clock interval around the same call, so
 * the tick rate never needs calibrating.  The fences keep the compiler
 * from moving the surrounding calls across the read.
 */
inline std::uint64_t
spanTicks()
{
    std::atomic_signal_fence(std::memory_order_seq_cst);
#if defined(__x86_64__)
    const std::uint64_t t = __rdtsc();
#else
    const std::uint64_t t = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return t;
}

/** The share `part / whole` of `seconds`. */
inline double
shareOf(std::uint64_t part, std::uint64_t whole, double seconds)
{
    return whole ? seconds * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** Host time one layer took in a traced repetition, and the
 *  references it served (the ns/ref denominator). */
struct LayerTime
{
    double seconds = 0.0;
    std::uint64_t refs = 0;
};

/** Outcome of one repetition: set-up, then the measured phase. */
struct Rep
{
    /** Host seconds of the whole set-up, and of its two parts. */
    double setupS = 0.0;
    double recordS = 0.0;
    double buildS = 0.0;
    /** Host seconds of the measured calls, and references retired. */
    double wallS = 0.0;
    std::uint64_t refs = 0;
    /** Units the workload counts failures in (references or cells). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Seconds inside TimedSystem::run and the events it executed
     *  (sim.events_per_s), where the workload times that call alone. */
    double timedRunS = 0.0;
    std::uint64_t events = 0;
    /** Traced only: host time per layer, keyed by metric name.  On the
     *  single-threaded workloads the layers partition wallS. */
    std::map<std::string, LayerTime> layers;
    /** Traced only: sweep pool metrics (parallel.*). */
    std::map<std::string, double> pool;
    /** Exact statistics of the simulation, keyed by metric name. */
    std::map<std::string, double> exact;
    /** FNV-1a over every simulated statistic of the repetition. */
    std::uint64_t digest = 0;
};

/** FNV-1a digest over simulated statistics. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double d)
    {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        add(v);
    }

    void add(const std::string &s);
    void add(const RunResult &r);
    void add(const DirStoreCounters &d);
    void add(const TimedRunResult &r);

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** True when every field of a equals the same field of b. */
bool sameCounts(const AccessCounts &a, const AccessCounts &b);

/** Functional-tier statistics summed over the runs of one scheme. */
struct FuncTally
{
    AccessCounts counts;
    std::uint64_t dirResidentBytes = 0;
    std::uint64_t dirCompressions = 0;
    std::uint64_t dirDecompressions = 0;

    void add(const RunResult &r, const DirStoreCounters &d);
    /** Fill the cache./core./proto. count metrics. */
    void report(std::map<std::string, double> &exact) const;
};

/** Timed-tier statistics summed over the runs of one scheme; the
 *  histograms merge across systems. */
struct TimedTally
{
    std::uint64_t cycles = 0;
    std::uint64_t refs = 0;
    std::uint64_t events = 0;
    std::uint64_t stolenCycles = 0;
    std::uint64_t conversions = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netWaitCycles = 0;
    std::optional<Histogram> latency;
    std::optional<Histogram> queueWait;

    void add(const TimedRunResult &r, const TimedSystem &sys);
    /** Fill the sim./timed./net. count metrics. */
    void report(std::map<std::string, double> &exact) const;
};

/** A workload seed mixed with a per-input salt (SplitMix64). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** One repetition (set-up plus measured phase) of a workload. */
using WorkloadFn = Rep (*)(std::uint64_t seed, bool traced);

Rep funcSharing(std::uint64_t seed, bool traced);
Rep funcScatter(std::uint64_t seed, bool traced);
Rep timedCrossbar(std::uint64_t seed, bool traced);
Rep sweepMixed(std::uint64_t seed, bool traced);

/** Pool width of sweep_mixed. */
constexpr unsigned sweepThreads = 2;

} // namespace perfbench
} // namespace dir2b

#endif // DIR2B_PERFBENCH_HARNESS_HH
