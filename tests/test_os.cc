/**
 * @file test_os.cc
 * OS layer tests: privileged exception delivery policies, nested
 * whitelist windows (Section 6.3), and the paged DRAM line store whose
 * per-page califormed bitmap is the 8 B per 4 KiB page a swap keeps
 * (Sections 3 and 6.3).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/sentinel.hh"
#include "os/exception_unit.hh"
#include "sim/main_memory.hh"

namespace califorms
{
namespace
{

CaliformsException
loadFault(Addr addr)
{
    return CaliformsException{addr, AccessKind::Load,
                              FaultReason::LoadSecurityByte, 0};
}

TEST(ExceptionUnitTest, DeliversWhenUnmasked)
{
    ExceptionUnit unit;
    EXPECT_TRUE(unit.raise(loadFault(0x10)));
    ASSERT_EQ(unit.deliveredCount(), 1u);
    EXPECT_EQ(unit.delivered()[0].faultAddr, 0x10u);
    EXPECT_EQ(unit.suppressedCount(), 0u);
}

TEST(ExceptionUnitTest, MaskSuppresses)
{
    ExceptionUnit unit;
    unit.maskExceptions();
    EXPECT_FALSE(unit.raise(loadFault(0x20)));
    EXPECT_EQ(unit.deliveredCount(), 0u);
    EXPECT_EQ(unit.suppressedCount(), 1u);
    unit.unmaskExceptions();
    EXPECT_TRUE(unit.raise(loadFault(0x30)));
}

TEST(ExceptionUnitTest, NestedMasks)
{
    ExceptionUnit unit;
    unit.maskExceptions();
    unit.maskExceptions();
    unit.unmaskExceptions();
    EXPECT_TRUE(unit.masked()); // still one level deep
    EXPECT_FALSE(unit.raise(loadFault(0)));
    unit.unmaskExceptions();
    EXPECT_FALSE(unit.masked());
}

TEST(ExceptionUnitTest, UnbalancedUnmaskThrows)
{
    ExceptionUnit unit;
    EXPECT_THROW(unit.unmaskExceptions(), std::logic_error);
}

TEST(ExceptionUnitTest, TerminatePolicy)
{
    ExceptionUnit unit(ExceptionUnit::Policy::Terminate);
    EXPECT_FALSE(unit.terminated());
    unit.raise(loadFault(0));
    EXPECT_TRUE(unit.terminated());
}

TEST(ExceptionUnitTest, TerminatePolicyStillSuppressible)
{
    ExceptionUnit unit(ExceptionUnit::Policy::Terminate);
    WhitelistGuard guard(unit);
    unit.raise(loadFault(0));
    EXPECT_FALSE(unit.terminated());
}

TEST(ExceptionUnitTest, ClearLogs)
{
    ExceptionUnit unit;
    unit.raise(loadFault(1));
    unit.clearLogs();
    EXPECT_EQ(unit.deliveredCount(), 0u);
}

TEST(WhitelistGuardTest, RaiiBalances)
{
    ExceptionUnit unit;
    {
        WhitelistGuard a(unit);
        {
            WhitelistGuard b(unit);
            EXPECT_TRUE(unit.masked());
        }
        EXPECT_TRUE(unit.masked());
    }
    EXPECT_FALSE(unit.masked());
}

TEST(ExceptionDescribe, HumanReadable)
{
    const auto text = loadFault(0xabc).describe();
    EXPECT_NE(text.find("security byte"), std::string::npos);
    EXPECT_NE(text.find("abc"), std::string::npos);
}

// DRAM line store -----------------------------------------------------

TEST(MainMemoryTest, DefaultLinesAreZeroClean)
{
    MainMemory memory;
    const SentinelView line = memory.peek(0x1234540);
    EXPECT_FALSE(line.califormed());
    for (unsigned i = 0; i < lineBytes; ++i)
        EXPECT_EQ(line.data->bytes[i], 0);
}

TEST(MainMemoryTest, RejectsUnaligned)
{
    MainMemory memory;
    EXPECT_THROW(memory.peek(0x1020), std::invalid_argument);
    EXPECT_THROW(memory.califormed(0x1001), std::invalid_argument);
    EXPECT_THROW(memory.writeLine(63, SentinelLine{}),
                 std::invalid_argument);
    EXPECT_THROW(memory.writeEncoded(0x41, BitVectorLine{}),
                 std::invalid_argument);
}

SentinelLine
lineWithByte(std::uint8_t byte, bool califormed = false)
{
    SentinelLine line;
    line.raw[0] = byte;
    line.califormed = califormed;
    return line;
}

/** A canonical L1 line: a data pattern with security bytes at @p mask. */
BitVectorLine
l1Line(SecurityMask mask, std::uint8_t seed = 0x40)
{
    BitVectorLine line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(seed + 7 * i);
    line.mask = mask;
    line.canonicalize();
    return line;
}

void
expectZeroClean(SentinelView view)
{
    ASSERT_NE(view.data, nullptr);
    EXPECT_EQ(*view.data, LineData{});
    EXPECT_FALSE(view.califormed());
    EXPECT_EQ(view.mask, 0u);
}

TEST(MainMemoryTest, LinesSharingAPageStayIndependent)
{
    MainMemory memory;
    const Addr page = 0x7000;
    memory.writeLine(page + 3 * lineBytes, lineWithByte(0x33, true));
    memory.writeLine(page + 4 * lineBytes, lineWithByte(0x44));
    EXPECT_EQ(memory.peek(page + 3 * lineBytes).data->bytes[0], 0x33);
    EXPECT_TRUE(memory.peek(page + 3 * lineBytes).califormed());
    EXPECT_TRUE(memory.califormed(page + 3 * lineBytes));
    EXPECT_EQ(memory.peek(page + 4 * lineBytes).data->bytes[0], 0x44);
    EXPECT_FALSE(memory.peek(page + 4 * lineBytes).califormed());
    EXPECT_FALSE(memory.califormed(page + 4 * lineBytes));
    // Each line's payload is one host cache line of the data plane.
    const auto *first = memory.peek(page + 3 * lineBytes).data;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % lineBytes, 0u);
    EXPECT_EQ(memory.peek(page + 4 * lineBytes).data, first + 1);
}

TEST(MainMemoryTest, UnbackedSlotAndUnbackedPageReadZeroClean)
{
    MainMemory memory;
    const Addr page = 0x7000;
    memory.writeEncoded(page + 3 * lineBytes, l1Line(1ull << 9));
    // A never-written neighbour in the backed page...
    expectZeroClean(memory.peek(page + 5 * lineBytes));
    EXPECT_FALSE(memory.califormed(page + 5 * lineBytes));
    // ...and a line of a page never written at all.
    expectZeroClean(memory.peek(page + pageBytes));
    EXPECT_FALSE(memory.califormed(page + pageBytes));
    EXPECT_EQ(fillLine(memory.peek(page + pageBytes)), BitVectorLine{});
    EXPECT_TRUE(memory.califormed(page + 3 * lineBytes));
}

TEST(MainMemoryTest, RewriteDoesNotDoubleCount)
{
    // A rewrite lands in the line's one data slot and replaces its
    // califormed bit.
    MainMemory memory;
    memory.writeLine(0x100, lineWithByte(1, true));
    const LineData *const slot = memory.peek(0x100).data;
    memory.writeLine(0x100, lineWithByte(2));
    memory.writeLine(0x100, lineWithByte(3, true));
    EXPECT_EQ(memory.peek(0x100).data, slot);
    EXPECT_TRUE(memory.califormed(0x100));
    EXPECT_EQ(memory.peek(0x100).data->bytes[0], 3);
    // Clearing the ECC bit leaves the data in place.
    memory.writeLine(0x100, lineWithByte(4));
    EXPECT_EQ(memory.peek(0x100).data, slot);
    EXPECT_FALSE(memory.califormed(0x100));
    EXPECT_EQ(memory.peek(0x100).data->bytes[0], 4);
}

TEST(MainMemoryTest, EncodedRewriteClearsTheCaliformedBit)
{
    MainMemory memory;
    const BitVectorLine cal = l1Line(0x0f00'0000'0000'00f0ull);
    memory.writeEncoded(0x2040, cal);
    memory.writeEncoded(0x2080, l1Line(1ull << 63));
    EXPECT_TRUE(memory.califormed(0x2040));
    EXPECT_TRUE(memory.califormed(0x2080));
    EXPECT_EQ(memory.peek(0x2040).mask, cal.mask);

    // The same line rewritten without security bytes: still backed,
    // no longer califormed, and its stale mask slot is not read.
    const BitVectorLine plain = l1Line(0, 0x11);
    memory.writeEncoded(0x2040, plain);
    EXPECT_FALSE(memory.califormed(0x2040));
    EXPECT_TRUE(memory.califormed(0x2080));
    const SentinelView view = memory.peek(0x2040);
    EXPECT_FALSE(view.califormed());
    EXPECT_EQ(view.mask, 0u);
    EXPECT_EQ(*view.data, plain.data);
    EXPECT_EQ(fillLine(view), plain);

    // And back: the bit and the mask return with the encoding.
    memory.writeEncoded(0x2040, cal);
    EXPECT_TRUE(memory.califormed(0x2040));
    EXPECT_EQ(fillLine(memory.peek(0x2040)), cal);
}

TEST(MainMemoryTest, DistantPagesIncludingHighAddresses)
{
    MainMemory memory;
    const Addr addrs[] = {0, 0xfc0, 0x1000, 0x1234'5678'9ac0ull,
                          (Addr{1} << 40) + 0x40,
                          ~Addr{0} & ~Addr{lineBytes - 1}};
    std::uint8_t tag = 1;
    for (const Addr a : addrs)
        memory.writeLine(a, lineWithByte(tag++, (a & 0x40) != 0));
    tag = 1;
    for (const Addr a : addrs) {
        const SentinelView got = memory.peek(a);
        EXPECT_EQ(got.data->bytes[0], tag++) << std::hex << a;
        EXPECT_EQ(memory.califormed(a), (a & 0x40) != 0) << std::hex << a;
    }
    // The same page offset one page number away is a different line.
    expectZeroClean(memory.peek((Addr{1} << 40) + 0x1040));
}

TEST(MainMemoryTest, WriteEncodedCountsAndEncodesLikeWriteLine)
{
    MainMemory encoded, written;
    const BitVectorLine line = l1Line(0x8000'0000'0000'1006ull);
    encoded.writeEncoded(0x40, line);
    written.writeLine(0x40, spillLine(line));
    for (const MainMemory *memory : {&encoded, &written}) {
        EXPECT_TRUE(memory->califormed(0x40));
        const SentinelView view = memory->peek(0x40);
        EXPECT_TRUE(view.califormed());
        EXPECT_EQ(view.mask, line.mask);
        EXPECT_EQ(*view.data, spillLine(line).raw);
        EXPECT_EQ(fillLine(view), line);
    }
}

TEST(MainMemoryTest, UnmemoizedWriteFillsLikeMemoized)
{
    // Functional writes hand the store lines without a memo; the store
    // decodes their mask once, so a fill from either kind of write is
    // the same line.
    const SecurityMask masks[] = {1ull << 0,   1ull << 63,
                                  0x3ull,      0xfull,
                                  0x1f0ull,    0x8000'0000'0000'0001ull,
                                  0x00ff'00ff'00ff'00ffull, ~0ull};
    MainMemory memory;
    Addr a = 0x10000;
    for (const SecurityMask mask : masks) {
        const BitVectorLine line = l1Line(mask);
        const SentinelLine memoized = spillLine(line);
        ASSERT_TRUE(memoized.maskCached);
        SentinelLine bare;
        bare.raw = memoized.raw;
        bare.califormed = memoized.califormed;
        memory.writeLine(a, memoized);
        memory.writeLine(a + lineBytes, bare);
        EXPECT_EQ(memory.peek(a + lineBytes).mask, mask) << std::hex << mask;
        EXPECT_EQ(fillLine(memory.peek(a + lineBytes)),
                  fillLine(memory.peek(a)))
            << std::hex << mask;
        EXPECT_EQ(fillLine(memory.peek(a + lineBytes)), line);
        // A copy of the view hands the decoded mask on as a memo.
        const SentinelLine back = memory.peek(a + lineBytes).copy();
        EXPECT_TRUE(back.maskCached);
        EXPECT_EQ(back.cachedMask, mask);
        a += 2 * lineBytes;
    }
}

TEST(MainMemoryTest, LineReferencesSurvivePageTableGrowth)
{
    // The L1 reads a fetched line in place while its victim's
    // write-back may back new pages; pages are never moved or freed,
    // so a view keeps its data slot through page-table rehashes.
    MainMemory memory;
    const BitVectorLine line = l1Line(0x0000'00f0'0000'0102ull);
    memory.writeEncoded(0x40, line);
    const SentinelView held = memory.peek(0x40);
    const LineData before = *held.data;
    for (Addr page = 1; page <= 512; ++page)
        memory.writeEncoded(page * pageBytes, l1Line(1ull << (page % 64)));
    const SentinelView now = memory.peek(0x40);
    EXPECT_EQ(held.data, now.data);
    EXPECT_EQ(*held.data, before);
    EXPECT_EQ(now.mask, held.mask);
    EXPECT_EQ(fillLine(held), line);
}

} // namespace
} // namespace califorms
