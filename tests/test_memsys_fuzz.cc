/**
 * @file test_memsys_fuzz.cc
 * Differential fuzzing of the memory hierarchy against a flat
 * reference model. Random interleavings of loads, stores, CFORMs,
 * flushes and swaps must always agree with an oracle that tracks data
 * bytes and security masks directly — regardless of cache pressure,
 * eviction order, or conversion round trips. The grid varies cache
 * sizes, hierarchy depth, the write-back queue, next-line prefetch and
 * the Appendix A L1 formats. A two-core MSI machine with MSHRs, banked
 * DRAM and a write-back queue is fuzzed against the same oracle, so
 * dirty recall handoffs, queue victim hits and in-place spills all run
 * under it.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "os/swap.hh"
#include "sim/machine.hh"
#include "sim/memsys.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

/** Byte-exact oracle: plain maps of data and blacklist state. */
struct Oracle
{
    std::map<Addr, std::uint8_t> data;
    std::map<Addr, bool> security;

    std::uint8_t
    byteAt(Addr a) const
    {
        auto it = data.find(a);
        return it == data.end() ? 0 : it->second;
    }

    bool
    isSecurity(Addr a) const
    {
        auto it = security.find(a);
        return it != security.end() && it->second;
    }
};

/** One fuzzed machine. gtest prints a parameter's raw bytes into each
 *  test's listed name, so it has no padding bytes (whose garbage would
 *  change the names from build to build). */
struct FuzzParam
{
    std::uint64_t seed;
    std::uint32_t l1Size;
    std::uint32_t l2Size;
    std::uint32_t l3Size;
    std::uint32_t levels = 3;
    std::uint32_t wbQueueEntries = 0;
    std::uint16_t nextLinePrefetch = 0; //!< 0 or 1
    std::uint16_t l1Format = 0;         //!< an L1Format value
};
static_assert(sizeof(FuzzParam) == 32);

class MemSysFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(MemSysFuzz, AgreesWithOracle)
{
    const FuzzParam param = GetParam();
    MemSysParams p;
    p.l1Size = param.l1Size;
    p.l1Ways = 2;
    p.l2Size = param.l2Size;
    p.l2Ways = 2;
    p.l3Size = param.l3Size;
    p.l3Ways = 4;
    p.levels = param.levels;
    p.wbQueueEntries = param.wbQueueEntries;
    p.nextLinePrefetch = param.nextLinePrefetch != 0;
    p.l1Format = static_cast<L1Format>(param.l1Format);

    ExceptionUnit exceptions;
    MemorySystem mem(p, exceptions);
    Oracle oracle;
    Rng rng(param.seed);

    // A small footprint so lines get revisited across evictions.
    const Addr base = 0x40000;
    const std::size_t lines = 96;

    for (int step = 0; step < 6000; ++step) {
        const Addr la = base + lineBytes * rng.nextBelow(lines);
        switch (rng.nextBelow(20)) {
        case 0:
        case 1:
        case 2: { // CFORM toggle of a random byte group
            const std::uint64_t bits = rng.next() & rng.next();
            std::uint64_t to_set = 0, to_unset = 0;
            for (unsigned i = 0; i < lineBytes; ++i) {
                if (!testBit(bits, i))
                    continue;
                if (oracle.isSecurity(la + i))
                    to_unset |= 1ull << i;
                else
                    to_set |= 1ull << i;
            }
            CformOp op;
            op.lineAddr = la;
            op.setBits = to_set;
            op.mask = to_set | to_unset;
            op.nonTemporal = rng.chance(0.2);
            const auto res = mem.cform(op);
            ASSERT_FALSE(res.faulted);
            for (unsigned i = 0; i < lineBytes; ++i) {
                if (testBit(to_set, i)) {
                    oracle.security[la + i] = true;
                    oracle.data[la + i] = 0;
                }
                if (testBit(to_unset, i)) {
                    oracle.security[la + i] = false;
                    oracle.data[la + i] = 0;
                }
            }
            break;
          }
        case 3: // flush everything
            mem.flushAll();
            break;
        default: {
            const unsigned size =
                1u << rng.nextBelow(4); // 1,2,4,8
            const unsigned off = static_cast<unsigned>(
                rng.nextBelow(lineBytes - size + 1));
            const Addr addr = la + off;
            if (rng.chance(0.5)) { // store
                const std::uint64_t value = rng.next();
                bool any_security = false;
                for (unsigned i = 0; i < size; ++i)
                    any_security |= oracle.isSecurity(addr + i);
                const auto res = mem.store(addr, size, value);
                EXPECT_EQ(res.faulted, any_security);
                if (!any_security) {
                    for (unsigned i = 0; i < size; ++i)
                        oracle.data[addr + i] =
                            static_cast<std::uint8_t>(
                                (value >> (8 * i)) & 0xff);
                }
            } else { // load
                std::uint64_t expect = 0;
                bool any_security = false;
                for (unsigned i = 0; i < size; ++i) {
                    any_security |= oracle.isSecurity(addr + i);
                    expect |= static_cast<std::uint64_t>(
                                  oracle.byteAt(addr + i))
                              << (8 * i);
                }
                const auto res = mem.load(addr, size);
                EXPECT_EQ(res.faulted, any_security);
                EXPECT_EQ(res.value, expect)
                    << "addr=" << std::hex << addr << " size=" << size;
            }
            break;
          }
        }
    }

    // Final sweep: every byte and every mask bit must agree.
    for (std::size_t l = 0; l < lines; ++l) {
        const Addr la = base + l * lineBytes;
        const SecurityMask mask = mem.securityMask(la);
        for (unsigned i = 0; i < lineBytes; ++i) {
            EXPECT_EQ(testBit(mask, i), oracle.isSecurity(la + i))
                << std::hex << la + i;
            EXPECT_EQ(mem.peekByte(la + i), oracle.byteAt(la + i))
                << std::hex << la + i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGeometries, MemSysFuzz,
    ::testing::Values(FuzzParam{1, 1024, 4096, 16384},
                      FuzzParam{2, 1024, 4096, 16384},
                      FuzzParam{3, 512, 2048, 8192},
                      FuzzParam{4, 2048, 8192, 32768},
                      FuzzParam{5, 512, 4096, 32768},
                      FuzzParam{6, 1024, 2048, 8192},
                      FuzzParam{7, 1024, 4096, 16384, 1},
                      FuzzParam{8, 1024, 4096, 16384, 2},
                      FuzzParam{9, 1024, 0, 16384},
                      FuzzParam{10, 1024, 4096, 16384, 3, 4},
                      FuzzParam{11, 1024, 4096, 16384, 3, 0, 1},
                      FuzzParam{12, 1024, 4096, 16384, 3, 4, 0,
                                static_cast<std::uint16_t>(
                                    L1Format::Cal4B)},
                      FuzzParam{13, 1024, 4096, 16384, 3, 4, 0,
                                static_cast<std::uint16_t>(
                                    L1Format::Cal1B)}),
    [](const ::testing::TestParamInfo<FuzzParam> &info) {
        const FuzzParam &f = info.param;
        std::string name = "seed" + std::to_string(f.seed) + "_l1_" +
                           std::to_string(f.l1Size);
        if (f.levels != 3)
            name += "_levels" + std::to_string(f.levels);
        if (f.l2Size == 0)
            name += "_no_l2";
        if (f.wbQueueEntries)
            name += "_wbq" + std::to_string(f.wbQueueEntries);
        if (f.nextLinePrefetch)
            name += "_prefetch";
        if (f.l1Format == static_cast<std::uint16_t>(L1Format::Cal4B))
            name += "_cal4b";
        if (f.l1Format == static_cast<std::uint16_t>(L1Format::Cal1B))
            name += "_cal1b";
        return name;
    });

/** Two MSI cores on the timed miss path (4 MSHRs, 8 DRAM banks, a
 *  4-entry write-back queue) with caches small enough that a shared
 *  96-line footprint keeps every level evicting. */
MachineParams
twoCoreParams()
{
    MachineParams p;
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    p.mem.mshrEntries = 4;
    p.mem.dramBanks = 8;
    p.mem.wbQueueEntries = 4;
    p.mem.l1Size = 1024;
    p.mem.l1Ways = 2;
    p.mem.l2Size = 4096;
    p.mem.l2Ways = 2;
    p.mem.l3Size = 16384;
    p.mem.l3Ways = 4;
    return p;
}

class MachineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MachineFuzz, TwoCoresAgreeWithOracle)
{
    Machine m(twoCoreParams());
    Oracle oracle;
    Rng rng(GetParam());
    std::size_t faults = 0;

    const Addr base = 0x40000;
    const std::size_t lines = 96;

    for (int step = 0; step < 6000; ++step) {
        const unsigned core = static_cast<unsigned>(rng.nextBelow(2));
        const Addr la = base + lineBytes * rng.nextBelow(lines);
        if (rng.nextBelow(10) == 0) {
            // CFORM toggle of a random byte group. One in four also
            // flips the direction of its lowest byte (set a security
            // byte, or unset a normal one), so the op faults and leaves
            // the line untouched.
            const std::uint64_t bits = rng.next() & rng.next();
            std::uint64_t to_set = 0;
            for (unsigned i = 0; i < lineBytes; ++i)
                if (testBit(bits, i) && !oracle.isSecurity(la + i))
                    to_set |= 1ull << i;
            CformOp op;
            op.lineAddr = la;
            op.setBits = to_set;
            op.mask = bits;
            op.nonTemporal = rng.chance(0.2);
            const bool faulting = bits != 0 && rng.chance(0.25);
            if (faulting)
                op.setBits ^= bits & (~bits + 1);
            m.cformOn(core, op);
            if (faulting) {
                ++faults;
            } else {
                for (unsigned i = 0; i < lineBytes; ++i) {
                    if (testBit(bits, i)) {
                        oracle.security[la + i] = testBit(to_set, i);
                        oracle.data[la + i] = 0;
                    }
                }
            }
        } else {
            const unsigned size = 1u << rng.nextBelow(4); // 1,2,4,8
            const Addr addr = la + rng.nextBelow(lineBytes - size + 1);
            bool any_security = false;
            for (unsigned i = 0; i < size; ++i)
                any_security |= oracle.isSecurity(addr + i);
            faults += any_security;
            if (rng.chance(0.5)) {
                // A faulting store does not commit at all.
                const std::uint64_t value = rng.next();
                m.storeOn(core, addr, size, value);
                for (unsigned i = 0; i < size && !any_security; ++i)
                    oracle.data[addr + i] = static_cast<std::uint8_t>(
                        (value >> (8 * i)) & 0xff);
            } else {
                // Security bytes read zero, as the oracle holds them.
                std::uint64_t expect = 0;
                for (unsigned i = 0; i < size; ++i)
                    expect |= static_cast<std::uint64_t>(
                                  oracle.byteAt(addr + i))
                              << (8 * i);
                EXPECT_EQ(m.loadOn(core, addr, size), expect)
                    << "core " << core << " addr=" << std::hex << addr
                    << " size=" << size;
            }
        }
        ASSERT_EQ(m.exceptions().deliveredCount(), faults)
            << "step " << step;
    }

    const auto sweep = [&](const char *when) {
        for (std::size_t l = 0; l < lines; ++l) {
            const Addr la = base + l * lineBytes;
            const SecurityMask mask = m.securityMask(la);
            for (unsigned i = 0; i < lineBytes; ++i) {
                EXPECT_EQ(testBit(mask, i), oracle.isSecurity(la + i))
                    << when << " " << std::hex << la + i;
                EXPECT_EQ(m.peekByte(la + i), oracle.byteAt(la + i))
                    << when << " " << std::hex << la + i;
            }
        }
    };
    sweep("before flush");

    // The stream reached the miss-path cases this suite exists for.
    const MemSysStats s = m.memStats();
    EXPECT_GT(s.dirtyRecalls, 0u);
    EXPECT_GT(s.wbHits, 0u);
    EXPECT_GT(s.fills, 0u);
    EXPECT_GT(s.spills, 0u);

    m.flushAll();
    EXPECT_EQ(m.sharedMemory().directoryEntries(), 0u);
    sweep("after flush");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz,
                         ::testing::Range<std::uint64_t>(1, 5),
                         [](const ::testing::TestParamInfo<std::uint64_t>
                                &info) {
                             return "seed" + std::to_string(info.param);
                         });

TEST(MemSysSwapFuzz, SwapRoundTripUnderRandomState)
{
    // Randomly califormed pages must survive swap out / swap in with
    // data and metadata intact.
    MemSysParams p;
    p.l1Size = 1024;
    p.l1Ways = 2;
    p.l2Size = 4096;
    p.l2Ways = 2;
    p.l3Size = 16384;
    p.l3Ways = 4;
    ExceptionUnit ex;
    MemorySystem mem(p, ex);
    Rng rng(99);

    const Addr page = 0x100000;
    std::map<Addr, std::uint8_t> data;
    std::map<Addr, bool> security;
    for (int i = 0; i < 800; ++i) {
        const Addr a = page + rng.nextBelow(pageBytes);
        if (rng.chance(0.3)) {
            if (!security[lineBase(a) + lineOffset(a)]) {
                mem.cform(makeSetOp(lineBase(a),
                                    1ull << lineOffset(a)));
                security[a] = true;
                data[a] = 0;
            }
        } else if (!security[a]) {
            const auto v = static_cast<std::uint8_t>(rng.next());
            mem.store(a, 1, v);
            data[a] = v;
        }
    }

    mem.flushAll();
    SwapManager swap(mem.memory());
    swap.swapOut(page);
    swap.swapIn(page);

    for (const auto &[a, v] : data)
        EXPECT_EQ(mem.peekByte(a), v) << std::hex << a;
    for (const auto &[a, s] : security)
        EXPECT_EQ(static_cast<bool>(mem.securityMask(a) &
                                    (1ull << lineOffset(a))),
                  s)
            << std::hex << a;
}

} // namespace
} // namespace califorms
