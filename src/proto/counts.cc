#include "proto/counts.hh"

namespace dir2b
{

AccessCounts &
AccessCounts::operator+=(const AccessCounts &o)
{
#define X(f, kind, desc) f += o.f;
    DIR2B_ACCESS_COUNTS(X)
#undef X
    return *this;
}

AccessCounts
AccessCounts::operator-(const AccessCounts &o) const
{
    AccessCounts r = *this;
#define X(f, kind, desc) r.f -= o.f;
    DIR2B_ACCESS_COUNTS(X)
#undef X
    return r;
}

void
AccessCounts::forEachField(
    const AccessCounts &c,
    const std::function<void(const char *, std::uint64_t)> &fn)
{
    for (const auto &f : accessCountFields)
        fn(f.name, c.*f.member);
}

} // namespace dir2b
