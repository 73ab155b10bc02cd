/**
 * @file spans.hh
 * In-memory span aggregation for the traced run: each span keeps the
 * number of calls, their total host time and a histogram of per-call
 * durations, from which the run reports medians and tail percentiles.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/**
 * Per-call durations of one span. Durations below 16 ns get a bucket
 * each; above, every power of two splits into 16 buckets, so a reported
 * percentile is within 1/32 of the true value.
 */
class Span
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++buckets_[bucketOf(ns)];
        ++calls_;
        totalNs_ += ns;
    }

    std::uint64_t calls() const { return calls_; }
    std::uint64_t totalNs() const { return totalNs_; }

    /** The @p q quantile of the per-call durations in ns (0 if none). */
    double quantile(double q) const;

  private:
    static constexpr unsigned kSub = 16;
    static constexpr unsigned kBuckets = kSub + 60 * kSub;

    static unsigned bucketOf(std::uint64_t ns);

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t calls_ = 0;
    std::uint64_t totalNs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
