/**
 * @file
 * Functional-tier metric registration for the telemetry sampler.
 *
 * The functional tier's statistics all live in one place — the
 * protocol's cumulative AccessCounts (plain uint64 fields, stable for
 * the protocol's lifetime) plus the tiered directory-storage counters
 * of the two-bit schemes — so registration walks their two field
 * lists: a word source per AccessCounts field, a probe per
 * DirStoreCounters field.  The sample domain is completed
 * references (RunOptions::sampler flushes after every reference), so
 * a boundary at N refs snapshots the counts after exactly the first
 * N references, batched or scalar frontend alike.
 */

#ifndef DIR2B_SYSTEM_FUNC_TELEMETRY_HH
#define DIR2B_SYSTEM_FUNC_TELEMETRY_HH

namespace dir2b
{

class MetricRegistry;
class Protocol;

/** Register the functional metric set (docs/METRICS.md) against
 *  `proto`, which must outlive every read of `reg`. */
void registerFunctionalMetrics(MetricRegistry &reg,
                               const Protocol &proto);

} // namespace dir2b

#endif // DIR2B_SYSTEM_FUNC_TELEMETRY_HH
