/**
 * @file
 * Timed-tier metric registration for the telemetry sampler.
 *
 * TimedTelemetryView borrows the components of a TimedSystem — its
 * caches, directory controllers, event kernel and network — and
 * registerTimedMetrics() registers one fixed metric set (names and
 * order listed in docs/METRICS.md) whose probes read through it.
 */

#ifndef DIR2B_TIMED_TIMED_TELEMETRY_HH
#define DIR2B_TIMED_TIMED_TELEMETRY_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace dir2b
{

class EventQueue;
class MetricRegistry;
class TimedDirCtrl;
class TimedNetwork;
class TwoBitCacheCtrl;

/**
 * Borrowed pointers into a timed engine, filled by the engine at the
 * start of run() and kept alive (as an engine member) for the whole
 * run so registered probes can read through it.
 */
struct TimedTelemetryView
{
    /** Flat cache table in processor order. */
    const std::vector<std::unique_ptr<TwoBitCacheCtrl>> *caches =
        nullptr;
    /** Flat controller table in module order. */
    const std::vector<std::unique_ptr<TimedDirCtrl>> *dirs = nullptr;
    const EventQueue *queue = nullptr;
    const TimedNetwork *net = nullptr;
    /** Completed-reference counter. */
    const std::uint64_t *completed = nullptr;
};

/** Register the timed metric set (docs/METRICS.md) against `view`.
 *  `view` must outlive every read of `reg`. */
void registerTimedMetrics(MetricRegistry &reg,
                          const TimedTelemetryView &view);

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_TELEMETRY_HH
