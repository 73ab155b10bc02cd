/**
 * @file test_heap.cc
 * Heap allocator tests: intra-object califorming, inter-object guards,
 * clean-before-use free semantics, quarantine-based temporal safety,
 * zero-on-free, CFORM accounting, and reuse correctness.
 */

#include <gtest/gtest.h>

#include "alloc/heap.hh"

namespace califorms
{
namespace
{

StructDefPtr
sampleStruct()
{
    return std::make_shared<StructDef>(
        "s", std::vector<Field>{{"c", Type::charType()},
                                {"i", Type::intType()},
                                {"buf", Type::array(Type::charType(), 24)},
                                {"p", Type::pointer()}});
}

struct Harness
{
    Machine machine;
    HeapAllocator heap;

    explicit Harness(HeapParams params = HeapParams{})
        : machine(), heap(machine, params)
    {}

    std::shared_ptr<const SecureLayout>
    layout(InsertionPolicy policy, std::uint64_t seed = 1)
    {
        LayoutTransformer t(policy, PolicyParams{}, seed);
        return std::make_shared<SecureLayout>(
            t.transform(*sampleStruct()));
    }
};

TEST(Heap, AllocationIsAlignedAndUsable)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr addr = h.heap.allocate(layout);
    EXPECT_EQ(addr % 8, 0u);
    h.machine.store(addr, 4, 0x1234);
    EXPECT_EQ(h.machine.load(addr, 4), 0x1234u);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(Heap, IntraObjectSecurityBytesEstablished)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::Full);
    ASSERT_GT(layout->securityByteCount(), 0u);
    const Addr addr = h.heap.allocate(layout);
    // Every span byte is blacklisted in the machine.
    for (const auto &span : layout->securityBytes) {
        for (std::size_t i = 0; i < span.size; ++i) {
            const Addr b = addr + span.offset + i;
            EXPECT_TRUE(h.machine.securityMask(b) &
                        (1ull << lineOffset(b)))
                << "offset " << span.offset + i;
        }
    }
    // Field bytes are not.
    for (const auto &f : layout->fields) {
        const Addr b = addr + f.offset;
        EXPECT_FALSE(h.machine.securityMask(b) & (1ull << lineOffset(b)));
    }
}

TEST(Heap, InterObjectGuardsTrapLinearOverflow)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr addr = h.heap.allocate(layout);
    // One byte past the payload is a guard security byte.
    h.machine.load(addr + layout->size, 1);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 1u);
    // One byte before the payload likewise (underflow).
    h.machine.load(addr - 1, 1);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 2u);
}

TEST(Heap, FreeBlacklistsWholePayload)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr addr = h.heap.allocate(layout);
    h.machine.store(addr, 8, ~0ull);
    h.heap.free(addr);
    // Use after free: every byte traps.
    h.machine.load(addr, 8);
    EXPECT_GE(h.machine.exceptions().deliveredCount(), 1u);
    EXPECT_EQ(h.machine.exceptions().delivered()[0].faultAddr, addr);
}

TEST(Heap, FreeZeroesData)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr addr = h.heap.allocate(layout);
    h.machine.store(addr, 8, 0xdeadbeefcafef00dull);
    h.heap.free(addr);
    // Zero-on-free (Section 7.2): even a functional peek sees zeros.
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(h.machine.peekByte(addr + i), 0u);
}

TEST(Heap, QuarantineDelaysReuse)
{
    HeapParams params;
    params.quarantineFraction = 1.0; // quarantine effectively unbounded
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr a = h.heap.allocate(layout);
    h.heap.free(a);
    const Addr b = h.heap.allocate(layout);
    EXPECT_NE(a, b) << "freed block must not be recycled immediately";
    EXPECT_EQ(h.heap.stats().reuses, 0u);
}

TEST(Heap, RecycledAfterQuarantineDrains)
{
    HeapParams params;
    params.quarantineFraction = 0.0; // recycle immediately
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr a = h.heap.allocate(layout);
    h.heap.free(a);
    const Addr b = h.heap.allocate(layout);
    EXPECT_EQ(a, b);
    EXPECT_EQ(h.heap.stats().reuses, 1u);
    // The recycled block is clean where fields live and guarded around.
    h.machine.store(b, 4, 7);
    EXPECT_EQ(h.machine.load(b, 4), 7u);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(Heap, ReuseReestablishesIntraObjectSpans)
{
    HeapParams params;
    params.quarantineFraction = 0.0;
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::Full);
    const Addr a = h.heap.allocate(layout);
    h.heap.free(a);
    const Addr b = h.heap.allocate(layout);
    ASSERT_EQ(a, b);
    for (const auto &span : layout->securityBytes) {
        const Addr byte = b + span.offset;
        EXPECT_TRUE(h.machine.securityMask(byte) &
                    (1ull << lineOffset(byte)));
    }
    for (const auto &f : layout->fields) {
        const Addr byte = b + f.offset;
        EXPECT_FALSE(h.machine.securityMask(byte) &
                     (1ull << lineOffset(byte)));
    }
}

TEST(Heap, ArrayAllocationGuardsElements)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::Full);
    const std::size_t count = 5;
    const Addr base = h.heap.allocate(layout, count);
    // Each element's spans are blacklisted.
    for (std::size_t e = 0; e < count; ++e) {
        for (const auto &span : layout->securityBytes) {
            const Addr byte = base + e * layout->size + span.offset;
            EXPECT_TRUE(h.machine.securityMask(byte) &
                        (1ull << lineOffset(byte)))
                << "element " << e;
        }
    }
}

TEST(Heap, DistinctAllocationsDoNotOverlap)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::Full);
    std::vector<std::pair<Addr, Addr>> ranges;
    for (int i = 0; i < 50; ++i) {
        const Addr a = h.heap.allocate(layout);
        ranges.emplace_back(a, a + layout->size);
    }
    for (std::size_t i = 0; i < ranges.size(); ++i)
        for (std::size_t j = i + 1; j < ranges.size(); ++j)
            EXPECT_TRUE(ranges[i].second <= ranges[j].first ||
                        ranges[j].second <= ranges[i].first);
}

TEST(Heap, CformAccountingOneOpPerTouchedLine)
{
    HeapParams params;
    params.guardBytes = 8;
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::None);
    const std::uint64_t before = h.heap.stats().cformsIssued;
    const Addr addr = h.heap.allocate(layout);
    const std::uint64_t ops = h.heap.stats().cformsIssued - before;
    // Footprint = guards + ~42B payload, line rounded: one line.
    const std::size_t lines =
        (lineBase(addr + layout->size + params.guardBytes - 1) -
         lineBase(addr - params.guardBytes)) /
            lineBytes +
        1;
    EXPECT_LE(ops, lines);
    EXPECT_GT(ops, 0u);
}

TEST(Heap, NoCformModeIssuesNothingAndNothingFaults)
{
    HeapParams params;
    params.useCform = false;
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::Full);
    const Addr addr = h.heap.allocate(layout);
    EXPECT_EQ(h.heap.stats().cformsIssued, 0u);
    EXPECT_EQ(h.machine.memStats().cformOps, 0u);
    // Without CFORM there is no blacklist: even span bytes are plain.
    h.machine.load(addr + layout->securityBytes.front().offset, 1);
    h.heap.free(addr);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(Heap, NonTemporalModeFlagsOps)
{
    HeapParams params;
    params.nonTemporalCform = true;
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::Full);
    h.heap.allocate(layout);
    EXPECT_GT(h.heap.stats().cformsIssued, 0u);
    EXPECT_GT(h.machine.memStats().cformOps, 0u);
}

TEST(Heap, StatsTrackLiveAndQuarantine)
{
    HeapParams params;
    params.quarantineFraction = 1.0;
    Harness h(params);
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr a = h.heap.allocate(layout);
    EXPECT_EQ(h.heap.stats().allocs, 1u);
    EXPECT_EQ(h.heap.liveBytes(), layout->size);
    EXPECT_TRUE(h.heap.isLive(a));
    EXPECT_TRUE(h.heap.isLive(a + layout->size - 1));
    EXPECT_FALSE(h.heap.isLive(a + layout->size));
    h.heap.free(a);
    EXPECT_EQ(h.heap.stats().frees, 1u);
    EXPECT_EQ(h.heap.liveBytes(), 0u);
    EXPECT_GT(h.heap.quarantinedBytes(), 0u);
    EXPECT_FALSE(h.heap.isLive(a));
}

TEST(Heap, DoubleFreeAndForeignFreeRejected)
{
    Harness h;
    const auto layout = h.layout(InsertionPolicy::None);
    const Addr a = h.heap.allocate(layout);
    h.heap.free(a);
    EXPECT_THROW(h.heap.free(a), std::invalid_argument);
    EXPECT_THROW(h.heap.free(0xdead0000), std::invalid_argument);
}

TEST(Heap, AllocateRawGuardsOnly)
{
    Harness h;
    const Addr a = h.heap.allocateRaw(100);
    h.machine.store(a + 50, 4, 9);
    EXPECT_EQ(h.machine.load(a + 50, 4), 9u);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
    h.machine.load(a + 100, 1); // guard
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 1u);
}

TEST(Heap, RejectsBadArguments)
{
    Harness h;
    EXPECT_THROW(h.heap.allocate(nullptr), std::invalid_argument);
    EXPECT_THROW(h.heap.allocateRaw(0), std::invalid_argument);
    const auto layout = h.layout(InsertionPolicy::None);
    EXPECT_THROW(h.heap.allocate(layout, 0), std::invalid_argument);
}

} // namespace
} // namespace califorms
