/**
 * @file test_primitives.cc
 * Unit tests for the workload behaviour primitives: chase cycle
 * construction, stream/probe bounds, churn pool invariants, and stack
 * recursion patterns.
 */

#include <gtest/gtest.h>

#include <set>

#include "workload/primitives.hh"

namespace califorms
{
namespace
{

struct Harness
{
    Machine machine;
    HeapAllocator heap;
    StackAllocator stack;
    KernelContext ctx;

    explicit Harness(InsertionPolicy policy = InsertionPolicy::None,
                     double scale = 1.0)
        : machine(), heap(machine), stack(machine),
          ctx(machine, heap, stack,
              LayoutTransformer(policy, PolicyParams{}, 5), 42, scale)
    {}
};

StructDefPtr
nodeStruct()
{
    return std::make_shared<StructDef>(
        "node", std::vector<Field>{{"next", Type::intType()},
                                   {"weight", Type::doubleType()},
                                   {"tag", Type::charType()}});
}

TEST(ContextScaling, IterationCountScaledAndClamped)
{
    Harness h(InsertionPolicy::None, 0.25);
    EXPECT_EQ(h.ctx.n(1000), 250u);
    EXPECT_EQ(h.ctx.n(1), 1u); // never rounds to zero
}

TEST(ContextLayoutCache, SameDefSameLayout)
{
    Harness h(InsertionPolicy::Full);
    auto def = nodeStruct();
    const auto a = h.ctx.layoutOf(def);
    const auto b = h.ctx.layoutOf(def);
    EXPECT_EQ(a.get(), b.get()); // cached, one randomization per def
}

TEST(AllocArrayTest, ElementsAreLayoutSizeApart)
{
    Harness h;
    const StructArray arr = allocArray(h.ctx, nodeStruct(), 10);
    EXPECT_EQ(arr.count, 10u);
    for (std::size_t i = 1; i < arr.count; ++i)
        EXPECT_EQ(arr.elem(i) - arr.elem(i - 1), arr.layout->size);
}

TEST(PointerChaseTest, BuildsSingleCycle)
{
    // Sattolo's construction must produce one cycle covering every
    // element: follow the stored links and count distinct nodes.
    Harness h;
    const StructArray arr = allocArray(h.ctx, nodeStruct(), 64);
    pointerChase(h.ctx, arr, 1, 0, 0); // build links, one hop

    std::set<std::uint64_t> visited;
    std::uint64_t cur = 0;
    for (std::size_t i = 0; i < arr.count; ++i) {
        visited.insert(cur);
        cur = h.machine.load(arr.elem(cur) +
                                 arr.layout->fields[0].offset,
                             4);
        ASSERT_LT(cur, arr.count);
    }
    EXPECT_EQ(visited.size(), arr.count);
    EXPECT_EQ(cur, 0u); // back to the start: a single cycle
}

TEST(PointerChaseTest, NoFaultsUnderFullPolicy)
{
    Harness h(InsertionPolicy::Full);
    const StructArray arr = allocArray(h.ctx, nodeStruct(), 32);
    pointerChase(h.ctx, arr, 200, 2, 4, 2);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(StreamPassTest, TouchesEveryElement)
{
    Harness h;
    const StructArray arr = allocArray(h.ctx, nodeStruct(), 20);
    streamPass(h.ctx, arr, 1, 2, 0);
    // The pass stores the element index into field 0.
    for (std::size_t i = 0; i < arr.count; ++i) {
        EXPECT_EQ(h.machine.load(arr.elem(i) +
                                     arr.layout->fields[0].offset,
                                 4),
                  i);
    }
}

TEST(RawArrayTest, StreamAndProbeStayInBounds)
{
    Harness h;
    const RawArray raw = allocRaw(h.ctx, 4096);
    rawStream(h.ctx, raw, 2, 2);
    rawProbe(h.ctx, raw, 500, 2);
    // Guards sit just outside; no faults means no out-of-bounds touch.
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
}

TEST(AllocChurnTest, PoolStaysBalancedAndClean)
{
    Harness h(InsertionPolicy::Intelligent);
    allocChurn(h.ctx, {nodeStruct()}, 50, 300, 2);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
    // Every allocation was eventually freed.
    EXPECT_EQ(h.heap.stats().allocs, h.heap.stats().frees);
    EXPECT_EQ(h.heap.liveBytes(), 0u);
}

TEST(StackWorkTest, BalancedFramesNoFaults)
{
    Harness h(InsertionPolicy::Full);
    stackWork(h.ctx, nodeStruct(), 8, 3, 20);
    EXPECT_EQ(h.stack.depth(), 0u);
    EXPECT_EQ(h.machine.exceptions().deliveredCount(), 0u);
    EXPECT_GT(h.stack.cformsIssued(), 0u);
}

TEST(Determinism, SameSeedSameCycles)
{
    auto run = [] {
        Harness h(InsertionPolicy::Full);
        const StructArray arr = allocArray(h.ctx, nodeStruct(), 64);
        pointerChase(h.ctx, arr, 500, 1, 3);
        randomProbe(h.ctx, arr, 200, 2);
        return h.machine.cycles();
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace califorms
