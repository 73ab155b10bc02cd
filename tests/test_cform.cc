/**
 * @file test_cform.cc
 * Exhaustive tests of the CFORM instruction semantics against the
 * Table 1 K-map, plus atomicity and the canonical zeroing contract, and
 * a randomized differential check of the mask-algebra implementation
 * against a byte-at-a-time reference.
 */

#include <gtest/gtest.h>

#include "core/cform.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

/**
 * Test-only reference: Table 1 evaluated one byte at a time in address
 * order (the first faulting byte wins), then applied byte by byte. The
 * library computes the same thing with whole-mask algebra.
 */
std::optional<CaliformsException>
referenceApplyCform(BitVectorLine &line, const CformOp &op)
{
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (!testBit(op.mask, i))
            continue;
        const bool set = testBit(op.setBits, i);
        const bool sec = line.isSecurityByte(i);
        if (set && sec)
            return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                                      FaultReason::CformSetOnSecurity, 0};
        if (!set && !sec)
            return CaliformsException{op.lineAddr + i, AccessKind::Cform,
                                      FaultReason::CformUnsetRegular, 0};
    }
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (!testBit(op.mask, i))
            continue;
        if (testBit(op.setBits, i))
            line.mask |= 1ull << i;
        else
            line.mask &= ~(1ull << i);
        line.data[i] = 0;
    }
    return std::nullopt;
}

/** Byte-loop reference for BitVectorLine::canonical(). */
bool
referenceCanonical(const BitVectorLine &line)
{
    for (unsigned i = 0; i < lineBytes; ++i)
        if (line.isSecurityByte(i) && line.data[i] != 0)
            return false;
    return true;
}

TEST(CformKmap, MaskedBytesNeverChange)
{
    // Column "X, Don't care": regardless of R2, a masked-off byte keeps
    // its state.
    for (bool initially_security : {false, true}) {
        for (bool set_bit : {false, true}) {
            BitVectorLine line;
            line.data[5] = 0;
            if (initially_security)
                line.mask = 1ull << 5;
            CformOp op;
            op.lineAddr = 0;
            op.setBits = set_bit ? (1ull << 5) : 0;
            op.mask = 0; // disallow everything
            EXPECT_EQ(applyCform(line, op), std::nullopt);
            EXPECT_EQ(line.isSecurityByte(5), initially_security);
        }
    }
}

TEST(CformKmap, SetOnRegularMakesSecurity)
{
    BitVectorLine line;
    line.data[9] = 0xAB;
    CformOp op = makeSetOp(0, 1ull << 9);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_TRUE(line.isSecurityByte(9));
    // Hardware zeroes the byte: loads of security bytes return zero.
    EXPECT_EQ(line.data[9], 0);
}

TEST(CformKmap, UnsetOnSecurityMakesRegular)
{
    BitVectorLine line;
    line.mask = 1ull << 3;
    CformOp op = makeUnsetOp(0, 1ull << 3);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_FALSE(line.isSecurityByte(3));
    EXPECT_EQ(line.data[3], 0);
}

TEST(CformKmap, SetOnSecurityRaisesException)
{
    BitVectorLine line;
    line.mask = 1ull << 7;
    CformOp op = makeSetOp(0x1000, 1ull << 7);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->reason, FaultReason::CformSetOnSecurity);
    EXPECT_EQ(fault->faultAddr, 0x1000u + 7);
    EXPECT_EQ(fault->kind, AccessKind::Cform);
}

TEST(CformKmap, UnsetOnRegularRaisesException)
{
    BitVectorLine line;
    CformOp op = makeUnsetOp(0x2000, 1ull << 12);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->reason, FaultReason::CformUnsetRegular);
    EXPECT_EQ(fault->faultAddr, 0x2000u + 12);
}

TEST(CformKmap, ExhaustivePerByteTruthTable)
{
    // All 8 combinations of (initial state, set bit, mask bit) on every
    // byte position.
    for (unsigned pos = 0; pos < lineBytes; ++pos) {
        for (int initial = 0; initial < 2; ++initial) {
            for (int set = 0; set < 2; ++set) {
                for (int allow = 0; allow < 2; ++allow) {
                    BitVectorLine line;
                    if (initial)
                        line.mask = 1ull << pos;
                    CformOp op;
                    op.setBits = set ? (1ull << pos) : 0;
                    op.mask = allow ? (1ull << pos) : 0;
                    const auto fault = applyCform(line, op);

                    const bool expect_fault =
                        allow && ((set && initial) || (!set && !initial));
                    EXPECT_EQ(fault.has_value(), expect_fault)
                        << "pos=" << pos << " init=" << initial
                        << " set=" << set << " allow=" << allow;
                    const bool expect_security =
                        expect_fault ? initial : (allow ? set : initial);
                    EXPECT_EQ(line.isSecurityByte(pos),
                              expect_security != 0);
                }
            }
        }
    }
}

TEST(Cform, AtomicOnFault)
{
    // Byte 0 transition is legal, byte 1 faults: the line must be left
    // completely unmodified.
    BitVectorLine line;
    line.mask = 1ull << 1;
    line.data[0] = 0x42;
    CformOp op;
    op.setBits = (1ull << 0) | (1ull << 1); // set both
    op.mask = (1ull << 0) | (1ull << 1);
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_FALSE(line.isSecurityByte(0));
    EXPECT_EQ(line.data[0], 0x42);
    EXPECT_TRUE(line.isSecurityByte(1));
}

TEST(Cform, ReportsLowestFaultingAddress)
{
    BitVectorLine line;
    line.mask = (1ull << 20) | (1ull << 40);
    CformOp op = makeSetOp(0, (1ull << 20) | (1ull << 40));
    const auto fault = checkCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->faultAddr, 20u);
}

TEST(Cform, MixedSetAndUnsetInOneInstruction)
{
    // Partial update: set byte 2, unset byte 6, leave the rest alone.
    BitVectorLine line;
    line.mask = 1ull << 6;
    CformOp op;
    op.setBits = 1ull << 2;
    op.mask = (1ull << 2) | (1ull << 6);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_TRUE(line.isSecurityByte(2));
    EXPECT_FALSE(line.isSecurityByte(6));
}

TEST(Cform, FullLineBlacklist)
{
    BitVectorLine line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(i + 1);
    CformOp op = makeSetOp(0, ~0ull);
    EXPECT_EQ(applyCform(line, op), std::nullopt);
    EXPECT_EQ(line.mask, ~0ull);
    EXPECT_TRUE(line.canonical());
}

TEST(Cform, RejectsUnalignedAddress)
{
    BitVectorLine line;
    CformOp op = makeSetOp(7, 1);
    EXPECT_THROW(applyCform(line, op), std::invalid_argument);
}

TEST(Cform, LowestFaultWinsAcrossReasons)
{
    // Byte 3 is an unset of a regular byte, byte 5 a set of a security
    // byte: both fault, and the lower address decides the reason.
    BitVectorLine line;
    line.mask = 1ull << 5;
    line.data[0] = 0x11;
    CformOp op;
    op.lineAddr = 0x4000;
    op.setBits = 1ull << 5;
    op.mask = (1ull << 3) | (1ull << 5);
    const BitVectorLine before = line;
    const auto fault = applyCform(line, op);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->faultAddr, 0x4000u + 3);
    EXPECT_EQ(fault->reason, FaultReason::CformUnsetRegular);
    EXPECT_EQ(line, before);

    // Mirrored: the set-on-security byte now comes first.
    line.mask = 1ull << 3;
    op.setBits = 1ull << 3;
    const auto mirrored = applyCform(line, op);
    ASSERT_TRUE(mirrored.has_value());
    EXPECT_EQ(mirrored->faultAddr, 0x4000u + 3);
    EXPECT_EQ(mirrored->reason, FaultReason::CformSetOnSecurity);
}

TEST(Cform, MatchesByteWiseReferenceOnRandomOps)
{
    // Random line state (mask and data, not necessarily canonical) and
    // random operands. Half the ops are made legal on every selected
    // byte and then have up to two bytes flipped into faults, so both
    // outcomes and every fault position are well covered; mask
    // densities vary from sparse to full.
    Rng rng(0xCF0A);
    unsigned faulted = 0;
    for (unsigned n = 0; n < 100000; ++n) {
        BitVectorLine line;
        for (unsigned w = 0; w < lineBytes / 8; ++w) {
            const std::uint64_t v = rng.next();
            for (unsigned b = 0; b < 8; ++b)
                line.data[8 * w + b] =
                    static_cast<std::uint8_t>(v >> (8 * b));
        }
        line.mask = rng.next();
        if (rng.chance(0.5))
            line.mask &= rng.next();

        CformOp op;
        op.lineAddr = rng.nextBelow(1u << 20) * lineBytes;
        op.mask = rng.next();
        for (unsigned thin = rng.nextBelow(4); thin > 0; --thin)
            op.mask &= rng.next();
        if (rng.chance(0.05))
            op.mask = ~0ull;
        op.setBits = rng.next();
        if (rng.chance(0.5)) {
            op.setBits = ~line.mask;
            for (unsigned flips = rng.nextBelow(3); flips > 0; --flips)
                op.setBits ^= 1ull << rng.nextBelow(lineBytes);
        }

        EXPECT_EQ(line.canonical(), referenceCanonical(line)) << n;

        BitVectorLine expect = line;
        const auto want = referenceApplyCform(expect, op);
        BitVectorLine got = line;
        const auto fault = applyCform(got, op);

        ASSERT_EQ(fault.has_value(), want.has_value()) << n;
        if (fault) {
            ++faulted;
            EXPECT_EQ(fault->faultAddr, want->faultAddr) << n;
            EXPECT_EQ(fault->reason, want->reason) << n;
            EXPECT_EQ(fault->kind, AccessKind::Cform) << n;
            EXPECT_EQ(got, line) << n; // untouched on fault
        }
        EXPECT_EQ(got.mask, expect.mask) << n;
        EXPECT_EQ(got.data, expect.data) << n;
    }
    // Both outcomes must be exercised in bulk.
    EXPECT_GT(faulted, 20000u);
    EXPECT_LT(faulted, 80000u);
}

TEST(Line, ZeroBytesMatchesByteLoop)
{
    // The empty and full masks, each single lane, then random masks,
    // over random data: exactly the selected bytes become zero.
    std::vector<std::uint64_t> masks = {0, ~0ull};
    for (unsigned w = 0; w < lineBytes / 8; ++w)
        masks.push_back(0xffull << (8 * w));
    Rng rng(0x2E80);
    for (unsigned n = 0; n < 1000; ++n) {
        // Dense, sparse, and confined to one random lane.
        std::uint64_t bytes = rng.next();
        if (n % 3 == 1)
            bytes &= rng.next();
        else if (n % 3 == 2)
            bytes &= 0xffull << (8 * rng.nextBelow(lineBytes / 8));
        masks.push_back(bytes);
    }
    for (const std::uint64_t bytes : masks) {
        BitVectorLine line;
        for (unsigned i = 0; i < lineBytes; ++i)
            line.data[i] = static_cast<std::uint8_t>(rng.next() | 1);
        line.mask = rng.next();
        BitVectorLine expect = line;
        for (unsigned i = 0; i < lineBytes; ++i)
            if (testBit(bytes, i))
                expect.data[i] = 0;
        line.zeroBytes(bytes);
        EXPECT_EQ(line, expect) << std::hex << bytes;
    }
}

TEST(CformHelpers, MakeOpsTargetExactMask)
{
    const SecurityMask m = 0x00f0000000000001ull;
    const CformOp set = makeSetOp(0x40, m);
    EXPECT_EQ(set.setBits, m);
    EXPECT_EQ(set.mask, m);
    const CformOp unset = makeUnsetOp(0x40, m);
    EXPECT_EQ(unset.setBits, 0u);
    EXPECT_EQ(unset.mask, m);
}

} // namespace
} // namespace califorms
