/**
 * @file test_os.cc
 * OS layer tests: privileged exception delivery policies, nested
 * whitelist windows (Section 6.3), page swap metadata handling
 * (8B of reserved kernel space per 4KB page, Section 3), and the paged
 * DRAM line store beneath them.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "core/sentinel.hh"
#include "os/exception_unit.hh"
#include "os/swap.hh"
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

// Page swap -------------------------------------------------------------

TEST(Swap, RoundTripPreservesDataAndMetadata)
{
    MainMemory memory;
    const Addr page = 0x10000;

    // Line 2 of the page is califormed with one security byte at
    // offset 9; line 5 holds plain data.
    BitVectorLine cal;
    cal.data[0] = 0x11;
    cal.mask = 1ull << 9;
    cal.canonicalize();
    memory.writeLine(page + 2 * lineBytes, spillLine(cal));

    SentinelLine plain;
    plain.raw[3] = 0x77;
    memory.writeLine(page + 5 * lineBytes, plain);

    SwapManager swap(memory);
    const std::uint64_t meta = swap.swapOut(page);
    EXPECT_EQ(meta, 1ull << 2); // only line 2 is califormed
    EXPECT_TRUE(swap.isSwappedOut(page));
    EXPECT_EQ(swap.metadataBytes(), 8u); // 8B per 4KB page (Section 6.3)

    // While swapped out, the frame reads as zero.
    EXPECT_FALSE(memory.readLine(page + 2 * lineBytes).califormed);

    swap.swapIn(page);
    EXPECT_FALSE(swap.isSwappedOut(page));
    const BitVectorLine back =
        fillLine(memory.readLine(page + 2 * lineBytes));
    EXPECT_EQ(back.mask, cal.mask);
    EXPECT_EQ(back.data, cal.data);
    EXPECT_EQ(memory.readLine(page + 5 * lineBytes).raw[3], 0x77);
}

TEST(Swap, RejectsUnalignedAndDoubleOps)
{
    MainMemory memory;
    SwapManager swap(memory);
    EXPECT_THROW(swap.swapOut(0x10001), std::invalid_argument);
    swap.swapOut(0x20000);
    EXPECT_THROW(swap.swapOut(0x20000), std::logic_error);
    EXPECT_THROW(swap.swapIn(0x30000), std::logic_error);
}

TEST(Swap, MetadataWordPacksAllLines)
{
    MainMemory memory;
    const Addr page = 0x40000;
    // Caliform every even line.
    for (std::size_t i = 0; i < linesPerPage; i += 2) {
        BitVectorLine line;
        line.mask = 1ull << 1;
        memory.writeLine(page + i * lineBytes, spillLine(line));
    }
    SwapManager swap(memory);
    const std::uint64_t meta = swap.swapOut(page);
    EXPECT_EQ(meta, 0x5555555555555555ull);
    swap.swapIn(page);
    for (std::size_t i = 0; i < linesPerPage; ++i) {
        EXPECT_EQ(memory.readLine(page + i * lineBytes).califormed,
                  i % 2 == 0);
    }
}

TEST(MainMemoryTest, DefaultLinesAreZeroClean)
{
    MainMemory memory;
    const SentinelLine line = memory.readLine(0x1234540);
    EXPECT_FALSE(line.califormed);
    for (unsigned i = 0; i < lineBytes; ++i)
        EXPECT_EQ(line.raw[i], 0);
}

TEST(MainMemoryTest, CountsBackedAndCaliformedLines)
{
    MainMemory memory;
    memory.writeLine(0, SentinelLine{});
    SentinelLine cal;
    cal.califormed = true;
    memory.writeLine(64, cal);
    EXPECT_EQ(memory.backedLines(), 2u);
    EXPECT_EQ(memory.califormedLines(), 1u);
}

TEST(MainMemoryTest, RejectsUnaligned)
{
    MainMemory memory;
    EXPECT_THROW(memory.readLine(1), std::invalid_argument);
    EXPECT_THROW(memory.peekLine(0x1020), std::invalid_argument);
    EXPECT_THROW(memory.writeLine(63, SentinelLine{}),
                 std::invalid_argument);
    EXPECT_EQ(memory.reads(), 0u);
    EXPECT_EQ(memory.writes(), 0u);
}

SentinelLine
lineWithByte(std::uint8_t byte, bool califormed = false)
{
    SentinelLine line;
    line.raw[0] = byte;
    line.califormed = califormed;
    return line;
}

TEST(MainMemoryTest, LinesSharingAPageStayIndependent)
{
    MainMemory memory;
    const Addr page = 0x7000;
    memory.writeLine(page + 3 * lineBytes, lineWithByte(0x33, true));
    memory.writeLine(page + 4 * lineBytes, lineWithByte(0x44));
    EXPECT_EQ(memory.peekLine(page + 3 * lineBytes).raw[0], 0x33);
    EXPECT_TRUE(memory.peekLine(page + 3 * lineBytes).califormed);
    EXPECT_EQ(memory.peekLine(page + 4 * lineBytes).raw[0], 0x44);
    EXPECT_FALSE(memory.peekLine(page + 4 * lineBytes).califormed);
    // A never-written neighbour on the same page still reads zero.
    const SentinelLine untouched = memory.peekLine(page + 5 * lineBytes);
    EXPECT_FALSE(untouched.califormed);
    for (unsigned i = 0; i < lineBytes; ++i)
        EXPECT_EQ(untouched.raw[i], 0);
    EXPECT_EQ(memory.backedLines(), 2u);
    EXPECT_EQ(memory.califormedLines(), 1u);
}

TEST(MainMemoryTest, RewriteDoesNotDoubleCount)
{
    MainMemory memory;
    memory.writeLine(0x100, lineWithByte(1, true));
    memory.writeLine(0x100, lineWithByte(2));
    memory.writeLine(0x100, lineWithByte(3, true));
    EXPECT_EQ(memory.backedLines(), 1u);
    EXPECT_EQ(memory.califormedLines(), 1u);
    EXPECT_EQ(memory.peekLine(0x100).raw[0], 3);
    // Clearing the ECC bit drops the line from the califormed count
    // but it stays backed.
    memory.writeLine(0x100, lineWithByte(4));
    EXPECT_EQ(memory.backedLines(), 1u);
    EXPECT_EQ(memory.califormedLines(), 0u);
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
        const SentinelLine got = memory.readLine(a);
        EXPECT_EQ(got.raw[0], tag++) << std::hex << a;
        EXPECT_EQ(got.califormed, (a & 0x40) != 0) << std::hex << a;
    }
    EXPECT_EQ(memory.backedLines(), std::size(addrs));
    EXPECT_EQ(memory.califormedLines(), 4u);
    // The same page offset one page number away is a different line.
    EXPECT_EQ(memory.readLine((Addr{1} << 40) + 0x1040).raw[0], 0);
}

TEST(MainMemoryTest, CountsReadsAndWritesButNotPeeks)
{
    MainMemory memory;
    memory.writeLine(0x40, lineWithByte(9));
    memory.writeLine(0x40, lineWithByte(9));
    (void)memory.readLine(0x40);
    (void)memory.readLine(0x80); // a never-written line still counts
    (void)memory.peekLine(0x40);
    (void)memory.peekLine(0x80);
    EXPECT_EQ(memory.writes(), 2u);
    EXPECT_EQ(memory.reads(), 2u);
}

TEST(MainMemoryTest, WriteSlotCountsLikeWriteLine)
{
    MainMemory memory;
    memory.writeSlot(0x40) = lineWithByte(7, true);
    memory.writeSlot(0x40).raw[0] = 8; // a rewrite in place
    EXPECT_EQ(memory.writes(), 2u);
    EXPECT_EQ(memory.backedLines(), 1u);
    EXPECT_EQ(memory.califormedLines(), 1u);
    EXPECT_EQ(memory.peekLine(0x40).raw[0], 8);
    EXPECT_THROW(memory.writeSlot(0x41), std::invalid_argument);
    EXPECT_EQ(memory.writes(), 2u);
}

TEST(MainMemoryTest, LineReferencesSurvivePageTableGrowth)
{
    // The L1 reads a fetched line in place while its victim's
    // write-back may back new pages; pages are never moved or freed.
    MainMemory memory;
    memory.writeLine(0x40, lineWithByte(5));
    const SentinelLine &held = memory.peekLine(0x40);
    for (Addr page = 1; page <= 512; ++page)
        memory.writeSlot(page * pageBytes) = lineWithByte(1);
    EXPECT_EQ(&held, &memory.peekLine(0x40));
    EXPECT_EQ(held.raw[0], 5);
}

} // namespace
} // namespace califorms
