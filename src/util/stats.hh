/**
 * @file stats.hh
 * Statistics helpers of the evaluation harness: fixed-bin histograms
 * and the averaging convention the paper uses (arithmetic mean of
 * per-benchmark speedups, Section 8.2 footnote 5).
 */

#ifndef CALIFORMS_UTIL_STATS_HH
#define CALIFORMS_UTIL_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace califorms
{

/**
 * Histogram over [lo, hi) with @p bins equal-width bins. Samples outside
 * the range are clamped into the first/last bin; this matches how the
 * paper's density plot treats density exactly 1.0 (it lands in the last
 * bin).
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::size_t total() const { return total_; }
    std::size_t binCount(std::size_t i) const { return counts_.at(i); }
    /** Fraction of all samples falling into bin @p i. */
    double binFraction(std::size_t i) const;
    /** Inclusive lower edge of bin @p i. */
    double binLo(std::size_t i) const;
    double binHi(std::size_t i) const;

    /** Render as rows "lo..hi fraction bar" for quick terminal viewing. */
    std::string render(std::size_t bar_width = 40) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::size_t> counts_;
    std::size_t total_ = 0;
};

/**
 * Average slowdown the way the paper reports it: each configuration's
 * slowdown is time/base_time - 1; the suite average is the arithmetic mean
 * of per-benchmark speedups (base/time), converted back to a slowdown.
 */
double averageSlowdown(const std::vector<double> &base_times,
                       const std::vector<double> &times);

} // namespace califorms

#endif // CALIFORMS_UTIL_STATS_HH
