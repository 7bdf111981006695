#include "sim/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace dir2b
{

Histogram::Histogram(std::uint64_t bucketWidth, std::size_t nbuckets)
    : bucketWidth_(bucketWidth), buckets_(nbuckets + 1, 0)
{
    DIR2B_ASSERT(bucketWidth > 0, "histogram bucket width must be > 0");
    DIR2B_ASSERT(nbuckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(std::uint64_t v)
{
    std::size_t idx = static_cast<std::size_t>(v / bucketWidth_);
    if (idx >= buckets_.size() - 1)
        idx = buckets_.size() - 1;
    ++buckets_[idx];
    ++count_;
    sum_ += static_cast<double>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

std::uint64_t
Histogram::percentile(double frac) const
{
    DIR2B_ASSERT(frac >= 0.0 && frac <= 1.0, "percentile out of range");
    if (count_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        frac * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            if (i == buckets_.size() - 1)
                return max_;
            return (i + 1) * bucketWidth_ - 1;
        }
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    DIR2B_ASSERT(bucketWidth_ == other.bucketWidth_ &&
                     buckets_.size() == other.buckets_.size(),
                 "histogram merge requires identical geometry");
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = ~0ULL;
    max_ = 0;
}

std::string
statName(std::string_view group, std::string_view member)
{
    std::string out(group);
    out += '.';
    for (const char ch : member) {
        if (ch >= 'A' && ch <= 'Z') {
            out += '_';
            out += static_cast<char>(ch - 'A' + 'a');
        } else {
            out += ch;
        }
    }
    return out;
}

namespace
{

void
dumpLine(std::ostream &os, const std::string &name,
         const std::string &value, const char *desc)
{
    os << std::left << std::setw(40) << name << " " << std::right
       << std::setw(16) << value << "  # " << desc << "\n";
}

} // namespace

void
dumpStat(std::ostream &os, const std::string &name, const Counter &c,
         const char *desc)
{
    dumpLine(os, name, std::to_string(c.value()), desc);
}

void
dumpStat(std::ostream &os, const std::string &name, const Histogram &h,
         const char *desc)
{
    std::ostringstream v;
    v << std::fixed << std::setprecision(2) << h.mean() << " ["
      << h.min() << "," << h.max() << "]";
    dumpLine(os, name, v.str(), desc);
}

} // namespace dir2b
