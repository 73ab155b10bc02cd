/**
 * @file test_sentinel.cc
 * Properties of the califorms-sentinel codec (Section 5.2, Algorithms
 * 1-2): sentinel existence, round-trip identity, format rules of
 * Figure 7, and the natural-format guarantee for clean lines.
 */

#include <gtest/gtest.h>

#include "core/sentinel.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

/** A canonical random line with the given number of security bytes. */
BitVectorLine
randomLine(Rng &rng, unsigned security_bytes)
{
    BitVectorLine line;
    for (auto &b : line.data.bytes)
        b = static_cast<std::uint8_t>(rng.next() & 0xff);
    unsigned placed = 0;
    while (placed < security_bytes) {
        const unsigned i = static_cast<unsigned>(rng.nextBelow(lineBytes));
        if (!line.isSecurityByte(i)) {
            line.mask |= 1ull << i;
            ++placed;
        }
    }
    line.canonicalize();
    return line;
}

TEST(FindSentinel, NoneForCleanLine)
{
    BitVectorLine line;
    EXPECT_FALSE(findSentinel(line).has_value());
}

TEST(FindSentinel, ExistsForEveryCaliformedLine)
{
    Rng rng(1);
    for (unsigned count = 1; count <= 64; ++count) {
        for (int trial = 0; trial < 20; ++trial) {
            BitVectorLine line = randomLine(rng, count);
            auto sentinel = findSentinel(line);
            ASSERT_TRUE(sentinel.has_value());
            EXPECT_LT(*sentinel, 64);
            // No normal byte may share the sentinel's low 6 bits.
            for (unsigned i = 0; i < lineBytes; ++i) {
                if (!line.isSecurityByte(i)) {
                    EXPECT_NE(line.data[i] & 0x3f, *sentinel);
                }
            }
        }
    }
}

TEST(FindSentinel, AdversarialDenseValues)
{
    // Fill normal bytes with 63 distinct low-6 patterns; exactly one
    // pattern remains and must be found.
    BitVectorLine line;
    line.mask = 1ull << 10; // byte 10 is the security byte
    unsigned pattern = 0;
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (i == 10)
            continue;
        if (pattern == 37) // hold out pattern 37
            ++pattern;
        line.data[i] = static_cast<std::uint8_t>(pattern++);
    }
    line.canonicalize();
    // Patterns used: 0..63 except 37 (and except whatever canonicalize
    // zeroed — byte 10 is security, not scanned).
    // Byte value 0 is used by byte 0, so the only free pattern is 37.
    auto sentinel = findSentinel(line);
    ASSERT_TRUE(sentinel.has_value());
    EXPECT_EQ(*sentinel, 37);
}

TEST(Spill, CleanLineKeepsNaturalFormat)
{
    Rng rng(2);
    BitVectorLine line = randomLine(rng, 0);
    const SentinelLine spilled = spillLine(line);
    EXPECT_FALSE(spilled.califormed);
    EXPECT_EQ(spilled.raw, line.data);
}

TEST(Spill, CaliformedBitIsOrOfMask)
{
    Rng rng(3);
    for (unsigned count : {0u, 1u, 2u, 5u, 64u}) {
        BitVectorLine line = randomLine(rng, count);
        EXPECT_EQ(spillLine(line).califormed, count > 0);
    }
}

TEST(Spill, HeaderEncodesCountCode)
{
    Rng rng(4);
    for (unsigned count = 1; count <= 8; ++count) {
        BitVectorLine line = randomLine(rng, count);
        const SentinelLine spilled = spillLine(line);
        const unsigned code = spilled.raw[0] & 0x3;
        EXPECT_EQ(code, count >= 4 ? 3u : count - 1);
    }
}

/** gtest prints a parameter's raw bytes into each test's listed name,
 *  so it has no padding bytes (whose garbage would change the names
 *  from build to build). */
struct RoundTripParam
{
    std::uint64_t securityBytes;
    std::uint64_t seed;
};
static_assert(sizeof(RoundTripParam) == 16);

class SentinelRoundTrip
    : public ::testing::TestWithParam<RoundTripParam>
{
};

TEST_P(SentinelRoundTrip, FillInvertsSpill)
{
    Rng rng(GetParam().seed);
    for (int trial = 0; trial < 50; ++trial) {
        BitVectorLine line = randomLine(
            rng, static_cast<unsigned>(GetParam().securityBytes));
        const BitVectorLine back = fillLine(spillLine(line));
        EXPECT_EQ(back.mask, line.mask);
        EXPECT_EQ(back.data, line.data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSecurityByteCounts, SentinelRoundTrip,
    ::testing::Values(
        RoundTripParam{1, 11}, RoundTripParam{2, 12},
        RoundTripParam{3, 13}, RoundTripParam{4, 14},
        RoundTripParam{5, 15}, RoundTripParam{6, 16},
        RoundTripParam{7, 17}, RoundTripParam{8, 18},
        RoundTripParam{12, 19}, RoundTripParam{16, 20},
        RoundTripParam{24, 21}, RoundTripParam{32, 22},
        RoundTripParam{48, 23}, RoundTripParam{63, 24},
        RoundTripParam{64, 25}),
    [](const ::testing::TestParamInfo<RoundTripParam> &info) {
        return "sec" + std::to_string(info.param.securityBytes);
    });

TEST(SentinelRoundTripExhaustive, EverySingleSecurityBytePosition)
{
    Rng rng(30);
    for (unsigned pos = 0; pos < lineBytes; ++pos) {
        BitVectorLine line;
        for (auto &b : line.data.bytes)
            b = static_cast<std::uint8_t>(rng.next() & 0xff);
        line.mask = 1ull << pos;
        line.canonicalize();
        const BitVectorLine back = fillLine(spillLine(line));
        EXPECT_EQ(back.mask, line.mask) << "pos=" << pos;
        EXPECT_EQ(back.data, line.data) << "pos=" << pos;
    }
}

TEST(SentinelRoundTripExhaustive, EveryPairInHeaderRegion)
{
    // Security bytes inside the header region exercise the relocation
    // corner cases hardest.
    Rng rng(31);
    for (unsigned a = 0; a < 8; ++a) {
        for (unsigned b = a + 1; b < 8; ++b) {
            BitVectorLine line;
            for (auto &byte : line.data.bytes)
                byte = static_cast<std::uint8_t>(rng.next() & 0xff);
            line.mask = (1ull << a) | (1ull << b);
            line.canonicalize();
            const BitVectorLine back = fillLine(spillLine(line));
            EXPECT_EQ(back.mask, line.mask) << a << "," << b;
            EXPECT_EQ(back.data, line.data) << a << "," << b;
        }
    }
}

TEST(SentinelRoundTripExhaustive, DenseMasksAroundHeaderBoundary)
{
    // All masks over the first 6 bytes (63 combos) with random tails.
    Rng rng(32);
    for (std::uint64_t m = 1; m < 64; ++m) {
        BitVectorLine line;
        for (auto &byte : line.data.bytes)
            byte = static_cast<std::uint8_t>(rng.next() & 0xff);
        line.mask = m;
        line.canonicalize();
        const BitVectorLine back = fillLine(spillLine(line));
        EXPECT_EQ(back.mask, line.mask) << "mask=" << m;
        EXPECT_EQ(back.data, line.data) << "mask=" << m;
    }
}

TEST(DecodeMask, MatchesFillLine)
{
    Rng rng(33);
    for (unsigned count = 0; count <= 64; count += 3) {
        BitVectorLine line = randomLine(rng, count);
        const SentinelLine spilled = spillLine(line);
        EXPECT_EQ(decodeMask(spilled), fillLine(spilled).mask);
    }
}

TEST(DecodeMask, MemoFreeDecodeMatchesMemoAndOriginal)
{
    // The branch-free (SWAR) sentinel scan must agree with the
    // decode-once memo recorded by the spill side — and both with the
    // original mask — for every security byte count.
    Rng rng(35);
    for (unsigned count = 0; count <= 64; ++count) {
        BitVectorLine line = randomLine(rng, count);
        const SentinelLine spilled = spillLine(line);
        ASSERT_TRUE(spilled.maskCached);
        SentinelLine fresh = spilled;
        fresh.maskCached = false;
        EXPECT_EQ(decodeMask(fresh), decodeMask(spilled));
        EXPECT_EQ(decodeMask(fresh), line.mask);
        EXPECT_EQ(fillLine(fresh), fillLine(spilled));
    }
}

TEST(SentinelFormat, CriticalWordFirstHeaderInFirstFourBytes)
{
    // The security byte locations of a <=4-security-byte line must be
    // recoverable from the first four bytes alone (Section 5.2).
    Rng rng(34);
    for (unsigned count = 1; count <= 4; ++count) {
        BitVectorLine line = randomLine(rng, count);
        SentinelLine spilled = spillLine(line);
        SentinelLine truncated = spilled;
        // The copy no longer mirrors its raw bytes once corrupted, so
        // drop the decode-once memo to exercise the real header decode.
        truncated.maskCached = false;
        // Corrupt everything past byte 3; the mask must not change for
        // lines with <= 4 security bytes (no sentinel scan needed).
        if (count < 4 || popcount64(line.mask) == 4) {
            for (unsigned i = 4; i < lineBytes; ++i)
                truncated.raw[i] = 0xff;
            if ((spilled.raw[0] & 3) != 3) {
                EXPECT_EQ(decodeMask(truncated) & bitRange(0, 4),
                          decodeMask(spilled) & bitRange(0, 4));
            }
        }
    }
}

TEST(Spill, ZeroMaskRoundTripsThroughNonCaliformedPath)
{
    BitVectorLine line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(i * 3 + 1);
    const SentinelLine spilled = spillLine(line);
    EXPECT_FALSE(spilled.califormed);
    const BitVectorLine back = fillLine(spilled);
    EXPECT_EQ(back.data, line.data);
    EXPECT_EQ(back.mask, 0u);
}

TEST(Fill, SecurityBytesReadAsZero)
{
    Rng rng(35);
    BitVectorLine line = randomLine(rng, 9);
    const BitVectorLine back = fillLine(spillLine(line));
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (back.isSecurityByte(i)) {
            EXPECT_EQ(back.data[i], 0);
        }
    }
    EXPECT_TRUE(back.canonical());
}

} // namespace
} // namespace califorms
