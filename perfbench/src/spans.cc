#include "spans.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench
{

unsigned
Span::bucketOf(std::uint64_t ns)
{
    if (ns < kSub)
        return static_cast<unsigned>(ns);
    const unsigned exp = static_cast<unsigned>(std::bit_width(ns)) - 1;
    const unsigned sub = static_cast<unsigned>(ns >> (exp - 4)) & (kSub - 1);
    return kSub + (exp - 4) * kSub + sub;
}

double
Span::quantile(double q) const
{
    if (calls_ == 0)
        return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * calls_)));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen < rank)
            continue;
        if (i < kSub)
            return i;
        const unsigned shift = (i - kSub) / kSub;
        const double width = static_cast<double>(1ull << shift);
        const double lower = (kSub + (i - kSub) % kSub) * width;
        return lower + width / 2;
    }
    return 0.0;
}

} // namespace perfbench
