#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace califorms
{

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Histogram: bad range or bin count");
}

void
Histogram::add(double x)
{
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    auto idx = static_cast<long>(std::floor((x - lo_) / w));
    idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++total_;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) /
           static_cast<double>(total_);
}

double
Histogram::binLo(std::size_t i) const
{
    const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + w * static_cast<double>(i);
}

double
Histogram::binHi(std::size_t i) const
{
    return binLo(i + 1);
}

std::string
Histogram::render(std::size_t bar_width) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double frac = binFraction(i);
        os.setf(std::ios::fixed);
        os.precision(2);
        os << binLo(i) << "-" << binHi(i) << "  ";
        os.precision(4);
        os << frac << "  ";
        const auto filled =
            static_cast<std::size_t>(frac * static_cast<double>(bar_width));
        for (std::size_t b = 0; b < filled; ++b)
            os << '#';
        os << '\n';
    }
    return os.str();
}

double
averageSlowdown(const std::vector<double> &base_times,
                const std::vector<double> &times)
{
    if (base_times.size() != times.size() || base_times.empty())
        throw std::invalid_argument("averageSlowdown: size mismatch");
    double sum_speedup = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i)
        sum_speedup += base_times[i] / times[i];
    const double avg_speedup =
        sum_speedup / static_cast<double>(times.size());
    return 1.0 / avg_speedup - 1.0;
}

} // namespace califorms
