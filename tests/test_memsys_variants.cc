/**
 * @file test_memsys_variants.cc
 * The Appendix A L1 formats and the next-line prefetcher inside the
 * full hierarchy: functional equivalence across formats (differential
 * against the default), Table 7 latency behaviour, and prefetch
 * semantics.
 */

#include <gtest/gtest.h>

#include "sim/machine.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

MemSysParams
tinyParams(L1Format format)
{
    MemSysParams p;
    p.l1Size = 1024;
    p.l1Ways = 2;
    p.l2Size = 4096;
    p.l2Ways = 2;
    p.l3Size = 16384;
    p.l3Ways = 4;
    p.l1Format = format;
    return p;
}

class L1FormatEquivalence : public ::testing::TestWithParam<L1Format>
{
};

TEST_P(L1FormatEquivalence, SameArchitecturalBehaviourAsDefault)
{
    Machine ref_machine(MachineParams{
        .mem = tinyParams(L1Format::BitVector8B), .core = {}});
    Machine var_machine(
        MachineParams{.mem = tinyParams(GetParam()), .core = {}});
    MemorySystem &reference = ref_machine.memorySystem();
    MemorySystem &variant = var_machine.memorySystem();
    Rng rng(7);

    for (int step = 0; step < 3000; ++step) {
        const Addr la = 0x8000 + lineBytes * rng.nextBelow(64);
        switch (rng.nextBelow(10)) {
        case 0: {
            const SecurityMask m = rng.next() & 0x0f0f0f0f0f0f0f0full;
            // Toggle-safe: unset whatever is set, set what is not.
            const SecurityMask cur = ref_machine.securityMask(la);
            CformOp op;
            op.lineAddr = la;
            op.setBits = m & ~cur;
            op.mask = m;
            reference.cform(op);
            variant.cform(op);
            break;
          }
        default: {
            const unsigned size = 1u << rng.nextBelow(4);
            const Addr addr =
                la + rng.nextBelow(lineBytes - size + 1);
            if (rng.chance(0.5)) {
                const std::uint64_t v = rng.next();
                reference.store(addr, size, v);
                variant.store(addr, size, v);
            } else {
                const auto a = reference.load(addr, size);
                const auto b = variant.load(addr, size);
                EXPECT_EQ(a.value, b.value) << std::hex << addr;
                EXPECT_EQ(a.faulted, b.faulted) << std::hex << addr;
            }
            break;
          }
        }
    }
    EXPECT_EQ(ref_machine.exceptions().deliveredCount(),
              var_machine.exceptions().deliveredCount());
}

INSTANTIATE_TEST_SUITE_P(Formats, L1FormatEquivalence,
                         ::testing::Values(L1Format::Cal4B,
                                           L1Format::Cal1B),
                         [](const auto &info) {
                             return info.param == L1Format::Cal4B
                                        ? "Cal4B"
                                        : "Cal1B";
                         });

TEST(L1FormatLatency, Table7ExtraCycles)
{
    EXPECT_EQ(l1FormatExtraLatency(L1Format::BitVector8B), 0u);
    EXPECT_EQ(l1FormatExtraLatency(L1Format::Cal1B), 1u);
    EXPECT_EQ(l1FormatExtraLatency(L1Format::Cal4B), 2u);

    for (L1Format f :
         {L1Format::BitVector8B, L1Format::Cal1B, L1Format::Cal4B}) {
        MemSysParams p; // full size
        p.l1Format = f;
        Machine m(MachineParams{.mem = p, .core = {}});
        MemorySystem &mem = m.memorySystem();
        mem.load(0x1000, 8); // install
        const auto hit = mem.load(0x1000, 8);
        EXPECT_EQ(hit.latency, p.l1Latency + l1FormatExtraLatency(f));
    }
}

TEST(Prefetcher, NextLineLandsInL2)
{
    MemSysParams p = tinyParams(L1Format::BitVector8B);
    p.nextLinePrefetch = true;
    Machine m(MachineParams{.mem = p, .core = {}});
    MemorySystem &mem = m.memorySystem();

    // Put data in the "next" line, flush it to DRAM.
    mem.store(0x9040, 8, 0x77);
    m.flushAll();

    // Miss on 0x9000 prefetches 0x9040 into the L2: the subsequent
    // demand access costs only an L2 hit.
    mem.load(0x9000, 8);
    const auto res = mem.load(0x9040, 8);
    EXPECT_EQ(res.latency, p.l1Latency + p.l2Latency);
    EXPECT_EQ(res.value, 0x77u);
}

TEST(Prefetcher, PreservesCaliformedMetadata)
{
    MemSysParams p = tinyParams(L1Format::BitVector8B);
    p.nextLinePrefetch = true;
    Machine m(MachineParams{.mem = p, .core = {}});
    MemorySystem &mem = m.memorySystem();

    mem.cform(makeSetOp(0xa040, 0xffull));
    m.flushAll();
    mem.load(0xa000, 8); // prefetches the califormed 0xa040
    EXPECT_EQ(m.securityMask(0xa040), 0xffull);
    const auto res = mem.load(0xa040, 8);
    EXPECT_TRUE(res.faulted);
}

TEST(Prefetcher, StreamingMissesDrop)
{
    auto misses = [](bool prefetch) {
        MemSysParams p; // full-size hierarchy
        p.nextLinePrefetch = prefetch;
        Machine m(MachineParams{.mem = p, .core = {}});
        MemorySystem &mem = m.memorySystem();
        for (Addr a = 0x100000; a < 0x100000 + 512 * 1024; a += 8)
            mem.load(a, 8);
        return m.memStats().l2.misses;
    };
    // With next-line prefetch, half the demand L2 misses disappear.
    EXPECT_LT(misses(true), misses(false) / 2 + 64);
}

} // namespace
} // namespace califorms
