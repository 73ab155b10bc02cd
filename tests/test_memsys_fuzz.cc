/**
 * @file test_memsys_fuzz.cc
 * Differential fuzzing of the memory hierarchy against a flat
 * reference model. Random interleavings of loads, stores, CFORMs,
 * flushes and swaps must always agree with an oracle that tracks data
 * bytes and security masks directly — regardless of cache pressure,
 * eviction order, or conversion round trips. The grid varies cache
 * sizes, hierarchy depth, the write-back queue and next-line prefetch.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "os/swap.hh"
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
    std::uint32_t nextLinePrefetch = 0; //!< 0 or 1
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
                      FuzzParam{11, 1024, 4096, 16384, 3, 0, 1}),
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
        return name;
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
