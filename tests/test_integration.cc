/**
 * @file test_integration.cc
 * End-to-end scenarios across the full stack: the attacks the paper's
 * security discussion describes (intra-object overflow, inter-object
 * overflow, use-after-free, memory scans) must be detected, and the
 * full memory hierarchy must preserve blacklists through arbitrary
 * cache pressure.
 */

#include <gtest/gtest.h>

#include "alloc/heap.hh"
#include "alloc/secure_mem.hh"
#include "layout/corpus.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

struct System
{
    Machine machine;
    HeapAllocator heap;

    System() : machine(), heap(machine) {}
};

/** struct A of Listing 1. */
StructDefPtr
listingOne()
{
    return std::make_shared<StructDef>(
        "A", std::vector<Field>{{"c", Type::charType()},
                                {"i", Type::intType()},
                                {"buf", Type::array(Type::charType(), 64)},
                                {"fp", Type::functionPointer()},
                                {"d", Type::doubleType()}});
}

TEST(EndToEnd, IntraObjectOverflowIntoFunctionPointerDetected)
{
    // The marquee attack: overflow buf[64] to corrupt fp. With the
    // intelligent policy, security bytes sit between buf and fp.
    System sys;
    LayoutTransformer t(InsertionPolicy::Intelligent, PolicyParams{}, 9);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr obj = sys.heap.allocate(layout);

    const auto &buf = layout->fields[2];
    // A linear overflow writing past buf:
    std::size_t wrote = 0;
    for (std::size_t i = 0; i < buf.size + 8; ++i) {
        sys.machine.store(obj + buf.offset + i, 1, 0x41);
        ++wrote;
        if (!sys.machine.exceptions().delivered().empty())
            break;
    }
    // Trapped on the very first byte past the buffer.
    ASSERT_EQ(sys.machine.exceptions().deliveredCount(), 1u);
    EXPECT_EQ(wrote, buf.size + 1);
    EXPECT_EQ(sys.machine.exceptions().delivered()[0].faultAddr,
              obj + buf.offset + buf.size);
    // fp was never corrupted.
    const auto &fp = layout->fields[3];
    EXPECT_EQ(sys.machine.load(obj + fp.offset, 8), 0u);
}

TEST(EndToEnd, OverreadDetectedToo)
{
    // Unlike canaries, tripwires catch overreads as well (Section 9).
    System sys;
    LayoutTransformer t(InsertionPolicy::Intelligent, PolicyParams{}, 9);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr obj = sys.heap.allocate(layout);
    const auto &buf = layout->fields[2];
    for (std::size_t i = 0; i <= buf.size; ++i)
        sys.machine.load(obj + buf.offset + i, 1);
    EXPECT_EQ(sys.machine.exceptions().deliveredCount(), 1u);
}

TEST(EndToEnd, InterObjectOverflowDetectedByGuards)
{
    System sys;
    LayoutTransformer t(InsertionPolicy::None, PolicyParams{}, 1);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr a = sys.heap.allocate(layout);
    // Run off the end of the whole object.
    sys.machine.store(a + layout->size, 1, 0x41);
    EXPECT_EQ(sys.machine.exceptions().deliveredCount(), 1u);
}

TEST(EndToEnd, UseAfterFreeDetectedWhileQuarantined)
{
    System sys;
    LayoutTransformer t(InsertionPolicy::None, PolicyParams{}, 1);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr obj = sys.heap.allocate(layout);
    sys.machine.store(obj, 8, 0x1122334455667788ull);
    sys.heap.free(obj);

    // Dangling read: faults, and leaks nothing (zero-on-free).
    const std::uint64_t leaked = sys.machine.load(obj, 8);
    EXPECT_EQ(leaked, 0u);
    EXPECT_GE(sys.machine.exceptions().deliveredCount(), 1u);

    // Dangling write: faults and does not commit.
    sys.machine.store(obj, 8, ~0ull);
    EXPECT_EQ(sys.machine.peekByte(obj), 0u);
}

TEST(EndToEnd, MemoryScanHitsSecurityBytesQuickly)
{
    // Derandomization (Section 7.3): a linear scan over califormed
    // objects cannot avoid security bytes.
    System sys;
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{}, 5);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr base = sys.heap.allocate(layout, 16);
    for (std::size_t b = 0; b < layout->size * 16; ++b)
        sys.machine.load(base + b, 1);
    // Every element contributes faults.
    EXPECT_GE(sys.machine.exceptions().deliveredCount(), 16u);
}

TEST(EndToEnd, BlacklistsSurviveHeavyCachePressure)
{
    // Property: after arbitrary traffic, the machine's view of security
    // bytes matches the allocator's layout for every live object.
    System sys;
    Rng rng(77);
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{}, 3);
    const auto corpus = generateCorpus(
        [] {
            CorpusParams p;
            p.structCount = 40;
            return p;
        }(),
        11);

    struct LiveObj
    {
        Addr addr;
        std::shared_ptr<const SecureLayout> layout;
    };
    std::vector<LiveObj> live;
    for (const auto &def : corpus) {
        auto layout = std::make_shared<SecureLayout>(t.transform(*def));
        live.push_back({sys.heap.allocate(layout), layout});
    }

    // Thrash: touch several MB so every object spills to DRAM and back.
    for (int i = 0; i < 80000; ++i)
        sys.machine.store(0x900000000ull + 64 * (i % 60000), 8, i);

    for (const auto &obj : live) {
        for (std::size_t b = 0; b < obj.layout->size; ++b) {
            const Addr a = obj.addr + b;
            const bool blacklisted =
                sys.machine.securityMask(a) & (1ull << lineOffset(a));
            EXPECT_EQ(blacklisted, obj.layout->isSecurityByte(b))
                << "object at " << std::hex << obj.addr << " byte " << b;
        }
    }
}

TEST(EndToEnd, WhitelistedCopyThenAttackStillCaught)
{
    // memcpy is whitelisted, but it does not strip the destination's
    // blacklist: a later rogue access still traps (Section 7.3's
    // "persistent tampering protection").
    System sys;
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{}, 4);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr src = sys.heap.allocate(layout);
    const Addr dst = sys.heap.allocate(layout);
    secureMemcpy(sys.machine, dst, src, layout->size);
    EXPECT_EQ(sys.machine.exceptions().deliveredCount(), 0u);
    sys.machine.store(dst + layout->securityBytes.front().offset, 1, 1);
    EXPECT_EQ(sys.machine.exceptions().deliveredCount(), 1u);
}

TEST(EndToEnd, TerminatePolicyKillsOnFirstViolation)
{
    Machine machine(MachineParams{}, ExceptionUnit::Policy::Terminate);
    HeapAllocator heap(machine);
    LayoutTransformer t(InsertionPolicy::Full, PolicyParams{}, 4);
    auto layout = std::make_shared<SecureLayout>(t.transform(*listingOne()));
    const Addr obj = heap.allocate(layout);
    EXPECT_FALSE(machine.exceptions().terminated());
    machine.load(obj + layout->securityBytes.front().offset, 1);
    EXPECT_TRUE(machine.exceptions().terminated());
}

} // namespace
} // namespace califorms
