/**
 * @file
 * Statistics framework.
 *
 * Two primitives cover everything dir2b measures:
 *
 *  - Counter:   monotonically increasing event count;
 *  - Histogram: fixed-width bucket distribution with min/max/mean.
 *
 * Each stats struct declares its members from one field list (an
 * X-macro of member, kind and description) and exports the same list
 * as an array of StatField.  The stats dump, the telemetry series and
 * the JSON writers walk those arrays, so a statistic is declared in
 * exactly one line and every surface names it by one rule
 * (statName).
 */

#ifndef DIR2B_SIM_STATS_HH
#define DIR2B_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dir2b
{

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    Counter &operator++() { ++value_; return *this; }

  private:
    std::uint64_t value_ = 0;
};

/** Fixed-bucket histogram with overflow bucket and summary moments. */
class Histogram
{
  public:
    /** @param bucketWidth width of each bucket
     *  @param nbuckets    number of regular buckets (plus overflow) */
    explicit Histogram(std::uint64_t bucketWidth = 1,
                       std::size_t nbuckets = 32);

    void sample(std::uint64_t v);

    std::uint64_t samples() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /** Count in bucket i; the last bucket collects overflow. */
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

    /** Smallest v such that at least frac of samples are <= v. */
    std::uint64_t percentile(double frac) const;

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }

    /**
     * Fold another histogram of identical geometry (bucket width and
     * count) into this one — cross-cache / cross-controller
     * aggregation for sweep summaries.  Panics on geometry mismatch.
     */
    void merge(const Histogram &other);

    void reset();

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/** How a statistic's values relate over time. */
enum class MetricKind : std::uint8_t
{
    Counter, ///< monotonically non-decreasing (rates = deltas)
    Gauge,   ///< instantaneous level (queue depth, resident bytes)
};

/**
 * One entry of a stats struct's field list: the member, its name as
 * spelled in the source (for TimedRunResult, its timed-cell key), a
 * description and (for scalar statistics) its kind.  Histogram lists
 * leave the kind at its default; only the series reads it, and the
 * series samples scalars only.
 */
template <class S, class V>
struct StatField
{
    V S::*member;
    const char *name;
    const char *desc;
    MetricKind kind = MetricKind::Counter;
};

/** "group." plus the snake_case of a member name, the name of every
 *  dumped and sampled statistic ("cache", "readHits" ->
 *  "cache.read_hits"). */
std::string statName(std::string_view group, std::string_view member);

/** Write one "group.stat  value  # desc" line of the stats dump;
 *  a histogram's value is "mean [min,max]". */
void dumpStat(std::ostream &os, const std::string &name,
              const Counter &c, const char *desc);
void dumpStat(std::ostream &os, const std::string &name,
              const Histogram &h, const char *desc);

/** Dump every field of `stats` listed in `fields` under `group`. */
template <class S, class V, std::size_t N>
void
dumpFields(std::ostream &os, std::string_view group, const S &stats,
           const StatField<S, V> (&fields)[N])
{
    for (const auto &f : fields)
        dumpStat(os, statName(group, f.name), stats.*f.member, f.desc);
}

} // namespace dir2b

#endif // DIR2B_SIM_STATS_HH
