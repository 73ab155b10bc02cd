/**
 * @file test_simd.cc
 * Appendix B wide-load policy tests: alignment rules, precise vs line
 * exception vs mask propagation semantics, and zero-masking of
 * blacklisted lanes.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"

namespace califorms
{
namespace
{

/** A one-core machine: wide loads go straight to its memory side. */
struct Harness
{
    Machine m;
    MemorySystem &mem;
    ExceptionUnit &exceptions;

    Harness() : mem(m.memorySystem()), exceptions(m.exceptions()) {}
};

using Policy = MemorySystem::SimdPolicy;

TEST(WideLoad, RejectsBadSizeAndAlignment)
{
    Harness h;
    EXPECT_THROW(h.mem.wideLoad(0, 24, Policy::PreciseGather),
                 std::invalid_argument);
    EXPECT_THROW(h.mem.wideLoad(8, 16, Policy::PreciseGather),
                 std::invalid_argument);
    EXPECT_THROW(h.mem.wideLoad(32, 64, Policy::PreciseGather),
                 std::invalid_argument);
}

TEST(WideLoad, CleanRangeNoFaultAnyPolicy)
{
    for (auto policy : {Policy::PreciseGather, Policy::LineException,
                        Policy::PropagateMask}) {
        Harness h;
        h.mem.store(0x1000, 8, 42);
        const auto r = h.mem.wideLoad(0x1000, 64, policy);
        EXPECT_FALSE(r.faulted);
        EXPECT_EQ(r.registerMask, 0u);
        EXPECT_EQ(h.exceptions.deliveredCount(), 0u);
    }
}

TEST(WideLoad, PreciseGatherFaultsOnOverlapOnly)
{
    Harness h;
    h.mem.cform(makeSetOp(0x1000, 1ull << 20));
    // A 16B vector not touching byte 20: clean.
    auto r = h.mem.wideLoad(0x1000, 16, Policy::PreciseGather);
    EXPECT_FALSE(r.faulted);
    // A 16B vector covering byte 20: faults precisely.
    r = h.mem.wideLoad(0x1010, 16, Policy::PreciseGather);
    EXPECT_TRUE(r.faulted);
    ASSERT_EQ(h.exceptions.deliveredCount(), 1u);
    EXPECT_EQ(h.exceptions.delivered()[0].faultAddr, 0x1014u);
}

TEST(WideLoad, PreciseGatherCostsLaneMicroOps)
{
    Harness h;
    h.mem.load(0x1000, 8); // warm the line
    const auto gather =
        h.mem.wideLoad(0x1000, 64, Policy::PreciseGather);
    Harness h2;
    h2.mem.load(0x1000, 8);
    const auto wide =
        h2.mem.wideLoad(0x1000, 64, Policy::LineException);
    EXPECT_EQ(gather.latency, wide.latency + 8); // one per 8B lane
}

TEST(WideLoad, LineExceptionFaultsOnAnySecurityByteInRange)
{
    Harness h;
    h.mem.cform(makeSetOp(0x1000, 1ull << 3));
    const auto r = h.mem.wideLoad(0x1000, 64, Policy::LineException);
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(h.exceptions.deliveredCount(), 1u);
}

TEST(WideLoad, PropagateMaskDefersException)
{
    Harness h;
    h.mem.cform(makeSetOp(0x1000, 0xf0ull)); // bytes 4..7
    const auto r = h.mem.wideLoad(0x1000, 16, Policy::PropagateMask);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(h.exceptions.deliveredCount(), 0u);
    // Poison bits are relative to the vector's own bytes.
    EXPECT_EQ(r.registerMask, 0xf0ull);
}

TEST(WideLoad, PropagateMaskOffsetWithinLine)
{
    Harness h;
    h.mem.cform(makeSetOp(0x1000, 1ull << 33));
    const auto r = h.mem.wideLoad(0x1020, 32, Policy::PropagateMask);
    EXPECT_EQ(r.registerMask, 1ull << 1); // byte 33 = vector byte 1
}

TEST(WideLoad, BlacklistedLanesReadZero)
{
    Harness h;
    h.mem.store(0x1000, 8, ~0ull);
    h.mem.cform(makeSetOp(0x1000, 0x0full));
    // The data under security bytes is zero regardless of policy.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(h.m.peekByte(0x1000 + i), 0u);
}

} // namespace
} // namespace califorms
