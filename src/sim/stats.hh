/**
 * @file
 * Statistics framework.
 *
 * Components register named statistics in a StatGroup; experiments dump
 * groups in a uniform "name value [description]" format.  Two
 * primitives cover everything dir2b measures:
 *
 *  - Counter:   monotonically increasing event count;
 *  - Histogram: fixed-width bucket distribution with min/max/mean.
 */

#ifndef DIR2B_SIM_STATS_HH
#define DIR2B_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
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

/** A named collection of statistics that can render itself. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(std::string name, const Counter *c,
                    std::string desc = "");
    void addHistogram(std::string name, const Histogram *h,
                      std::string desc = "");

    /** Write "group.stat value # desc" lines. */
    void dump(std::ostream &os) const;

  private:
    enum class Kind { Count, Hist };

    struct Entry
    {
        Kind kind;
        std::string name;
        std::string desc;
        const void *ptr;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

} // namespace dir2b

#endif // DIR2B_SIM_STATS_HH
