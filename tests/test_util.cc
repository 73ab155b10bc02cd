/**
 * @file test_util.cc
 * Unit tests for the utility layer: RNG determinism and distribution,
 * bit operations, statistics, histograms and the table renderer.
 */

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "util/bitops.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace califorms
{
namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 10; ++i)
        first.push_back(a.next());
    a.reseed(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(1, 7);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 7u);
        saw_lo |= v == 1;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformishDistribution)
{
    Rng rng(5);
    std::array<int, 8> buckets{};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++buckets[rng.nextBelow(8)];
    for (int count : buckets) {
        EXPECT_GT(count, n / 8 - n / 80);
        EXPECT_LT(count, n / 8 + n / 80);
    }
}

/** FNV-1a over the little-endian bytes of @p words. */
std::uint64_t
fnv1a(const std::vector<std::uint64_t> &words)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t w : words) {
        for (unsigned byte = 0; byte < 8; ++byte) {
            h ^= (w >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(Rng, FirstDrawsArePinned)
{
    // The first 64 draws of a fresh stream per (seed, bound), pinned
    // from the plain rejection loop: a power-of-two bound's mask path
    // must return the same values and consume one next() per draw.
    struct Pin
    {
        std::uint64_t seed, bound, hash;
    };
    const Pin pins[] = {
        {1, 1, 0x7da144b97d054b25ull},    {1, 2, 0x26def4f2cd917f64ull},
        {1, 8, 0x86ae71d47290c626ull},    {1, 2048, 0x127a5d377a3dca09ull},
        {1, 3, 0x898a2034db97fd44ull},    {1, 1000, 0x32a9eb4b01fe7076ull},
        {7, 1, 0x7da144b97d054b25ull},    {7, 2, 0xd3934eb15d337e64ull},
        {7, 8, 0xd7e168523d6e29a0ull},    {7, 2048, 0xa31176c092e18afeull},
        {7, 3, 0xdbd30c27997ae284ull},    {7, 1000, 0x75df7bd6c00a5822ull},
    };
    for (const Pin &pin : pins) {
        Rng rng(pin.seed);
        std::vector<std::uint64_t> draws;
        for (int i = 0; i < 64; ++i)
            draws.push_back(rng.nextBelow(pin.bound));
        EXPECT_EQ(fnv1a(draws), pin.hash)
            << "seed " << pin.seed << " bound " << pin.bound;
    }
    Rng rng(1);
    const std::uint64_t head8[] = {5, 2, 4, 7};
    for (const std::uint64_t want : head8)
        EXPECT_EQ(rng.nextBelow(8), want);
    rng.reseed(1);
    const std::uint64_t head2048[] = {197, 1258, 1300, 935};
    for (const std::uint64_t want : head2048)
        EXPECT_EQ(rng.nextBelow(2048), want);

    const std::pair<std::uint64_t, std::uint64_t> doubles[] = {
        {1, 0xaa8cdd73adf608a1ull}, {7, 0xe6a5309d36a0eb18ull}};
    for (const auto &[seed, hash] : doubles) {
        Rng d(seed);
        std::vector<std::uint64_t> bits;
        for (int i = 0; i < 64; ++i)
            bits.push_back(std::bit_cast<std::uint64_t>(d.nextDouble()));
        EXPECT_EQ(fnv1a(bits), hash) << "nextDouble seed " << seed;
    }
}

TEST(Bitops, FindFirstHelpers)
{
    EXPECT_EQ(findFirstOne(0), 64u);
    EXPECT_EQ(findFirstOne(1), 0u);
    EXPECT_EQ(findFirstOne(0x8000000000000000ull), 63u);
    EXPECT_EQ(findFirstZero(~0ull), 64u);
    EXPECT_EQ(findFirstZero(0xffull), 8u);
    EXPECT_EQ(findFirstZero(0), 0u);
}

TEST(Bitops, BitRange)
{
    EXPECT_EQ(bitRange(0, 0), 0u);
    EXPECT_EQ(bitRange(0, 64), ~0ull);
    EXPECT_EQ(bitRange(4, 4), 0xf0ull);
    EXPECT_EQ(bitRange(63, 1), 0x8000000000000000ull);
}

TEST(Bitops, Popcount)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(~0ull), 64u);
    EXPECT_EQ(popcount64(0xf0f0ull), 8u);
}

TEST(Types, LineArithmetic)
{
    EXPECT_EQ(lineBase(0), 0u);
    EXPECT_EQ(lineBase(63), 0u);
    EXPECT_EQ(lineBase(64), 64u);
    EXPECT_EQ(lineOffset(130), 2u);
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 4), 12u);
}

TEST(HistogramTest, BinningAndClamping)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05); // bin 0
    h.add(0.95); // bin 9
    h.add(1.5);  // clamped to bin 9
    h.add(-1.0); // clamped to bin 0
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.5);
}

TEST(HistogramTest, RejectsBadArguments)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Stats, AverageSlowdownMatchesPaperConvention)
{
    // Two benchmarks, one 10% slower, one unchanged: mean speedup is
    // (1/1.1 + 1)/2, so the reported average slowdown is its inverse.
    const std::vector<double> base{100.0, 100.0};
    const std::vector<double> with{110.0, 100.0};
    const double expected = 1.0 / ((1.0 / 1.1 + 1.0) / 2.0) - 1.0;
    EXPECT_NEAR(averageSlowdown(base, with), expected, 1e-12);
}

TEST(Stats, AverageSlowdownValidatesInput)
{
    EXPECT_THROW(averageSlowdown({}, {}), std::invalid_argument);
    EXPECT_THROW(averageSlowdown({1.0}, {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.0312, 1), "3.1%");
}

} // namespace
} // namespace califorms
