/**
 * @file
 * Configuration of the timed (discrete-event) tier.
 *
 * The functional tier executes transactions atomically; this tier
 * models the system of Figure 3-1 with real message latencies and the
 * controller design options of §3.2.5:
 *
 *   option 1 — "allow the controller to treat only one command at a
 *              time" (perBlockConcurrency = false);
 *   option 2 — "oblige the controller to treat commands related to a
 *              given block only one at a time" (the multiprogrammed
 *              controller; perBlockConcurrency = true).
 *
 * All latencies are in cycles of the global event clock.
 */

#ifndef DIR2B_TIMED_TIMED_CONFIG_HH
#define DIR2B_TIMED_TIMED_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "cache/cache_array.hh"
#include "util/types.hh"

namespace dir2b
{

class TraceRecorder;
class TelemetrySampler;

/** Interconnection-network model of the timed tier. */
enum class NetKind
{
    /** Fixed latency, infinite bandwidth. */
    Ideal,
    /** Point-to-point with one delivery per destination port per
     *  cycle (a crossbar-like general interconnection network);
     *  a broadcast costs n-1 independent messages — the paper's
     *  costing of the two-bit scheme. */
    Crossbar,
    /** One shared medium: every transaction serialises on the bus,
     *  but a broadcast occupies it only once (free fan-out) — the
     *  property that makes the §2.5 bus schemes viable. */
    Bus,
};

/** Which coherence scheme the timed system runs. */
enum class TimedProto
{
    /** The paper's two-bit broadcast directory. */
    TwoBit,
    /** The Censier-Feautrier full-map baseline (directed commands). */
    FullMap,
    /** The Yen-Fu extension: full map + silent exclusive-clean
     *  upgrades (§2.4.3), with its synchronization problems resolved
     *  (see timed/yf_dir_ctrl.hh). */
    YenFu,
};

/** One spelling of an enumerator: the name artifacts and reports
 *  echo, and an optional short command-line alias. */
template <class E>
struct EnumName
{
    E value;
    const char *name;
    const char *alias = nullptr;
};

inline constexpr EnumName<TimedProto> timedProtoNames[] = {
    {TimedProto::TwoBit, "two_bit", "tb"},
    {TimedProto::FullMap, "full_map", "fm"},
    {TimedProto::YenFu, "yen_fu", "yf"},
};

inline constexpr EnumName<NetKind> netKindNames[] = {
    {NetKind::Ideal, "ideal"},
    {NetKind::Crossbar, "crossbar"},
    {NetKind::Bus, "bus"},
};

/** The name of `v` in `names`. */
template <class E, std::size_t N>
constexpr const char *
enumName(const EnumName<E> (&names)[N], E v)
{
    for (const auto &n : names)
        if (n.value == v)
            return n.name;
    return "?";
}

/** The enumerator `s` names or aliases in `names`; nullopt if none. */
template <class E, std::size_t N>
constexpr std::optional<E>
parseEnumName(const EnumName<E> (&names)[N], std::string_view s)
{
    for (const auto &n : names)
        if (s == n.name || (n.alias && s == n.alias))
            return n.value;
    return std::nullopt;
}

/** Knobs of a timed run. */
struct TimedConfig
{
    /** Coherence scheme. */
    TimedProto protocol = TimedProto::TwoBit;
    /** Processor-cache pairs (P_k - C_k). */
    ProcId numProcs = 4;
    /** Memory-controller/module pairs (K_j - M_j). */
    ModuleId numModules = 2;
    /** Geometry of each private cache. */
    CacheGeometry cacheGeom{};

    /** Point-to-point network latency per message. */
    Tick netLatency = 4;
    /** Memory-module access time (read or write of one block). */
    Tick memLatency = 10;
    /** One cache directory cycle. */
    Tick cacheLatency = 1;
    /** Controller occupancy per dispatched command. */
    Tick dirLatency = 2;
    /** Processor think time between references. */
    Tick thinkTime = 1;

    /** §3.2.5 option 2: per-block concurrency in the controller. */
    bool perBlockConcurrency = false;
    /** §4.4 (a): duplicate tag directories at the caches. */
    bool snoopFilter = false;
    /** Interconnection-network contention model. */
    NetKind network = NetKind::Ideal;

    /** Safety net against protocol livelock. */
    std::uint64_t maxEvents = 200000000ULL;

    /** Total directory RAM budget in bytes, split evenly across the
     *  modules (two-bit scheme; util/tiered_store.hh).  0 = unlimited.
     *  Results are bit-identical at any budget. */
    std::uint64_t dirRamBudget = 0;

    /**
     * Optional trace recorder (src/obs).  When non-null and the build
     * compiles instrumentation (DIR2B_TRACE), every controller and the
     * network register a track and record phase spans and Table 3-1
     * command instants.  Recording never perturbs simulation state:
     * results are bit-identical with or without a recorder attached.
     */
    TraceRecorder *tracer = nullptr;

    /**
     * Optional time-series sampler (obs/telemetry.hh).  When non-null
     * the engine registers the timed metric set in its registry and
     * snapshots it every sampler->interval() ticks, between kernel
     * chunks, where the simulation state is exact for the boundary.
     * Sampling never perturbs simulation statistics.
     */
    TelemetrySampler *sampler = nullptr;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_CONFIG_HH
