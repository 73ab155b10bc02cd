/**
 * @file test_memsys_fuzz.cc
 * Differential fuzzing of the machine against a flat reference model.
 * One fuzz body drives random interleavings of loads, stores, CFORMs
 * (some of them faulting) and flushes from every core of a Machine over
 * a shared footprint, and checks each op's value and fault, and every
 * byte and mask bit at the end, against an oracle that tracks data
 * bytes and security masks directly — regardless of cache pressure,
 * eviction order, coherence traffic or conversion round trips.
 *
 * The points it runs: one-core geometries (cache sizes, hierarchy
 * depth, no L2, the write-back queue, next-line prefetch and the
 * Appendix A L1 formats), a two-core MSI machine with MSHRs, banked
 * DRAM and a write-back queue (dirty recall handoffs, queue victim hits
 * and in-place spills), and a sweep over the config space: every
 * replacement policy, MSHRs x DRAM banks, 2-4 MSI cores, and the
 * write-back queue x hierarchy depth. Multi-core machines without
 * coherence keep independent L1s by design, so they are not fuzzed
 * against one shared footprint.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/machine.hh"
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

/** Small caches, so a 96-line footprint keeps every level evicting. */
MachineParams
tinyMachine()
{
    MachineParams p;
    p.mem.l1Size = 1024;
    p.mem.l1Ways = 2;
    p.mem.l2Size = 4096;
    p.mem.l2Ways = 2;
    p.mem.l3Size = 16384;
    p.mem.l3Ways = 4;
    return p;
}

/**
 * The one fuzz body: 6000 random ops from random cores of a machine
 * built from @p params, seeded by @p seed. Checks every load's value,
 * the delivered-fault count after every op, every byte and mask bit
 * before and after a final flush, that the flush drains the directory,
 * and that the stream reached the miss-path cases the point exists
 * for.
 */
void
fuzzAgainstOracle(const MachineParams &params, std::uint64_t seed)
{
    Machine m(params);
    Oracle oracle;
    Rng rng(seed);
    std::size_t faults = 0;

    // A small footprint so lines get revisited across evictions.
    const Addr base = 0x40000;
    const std::size_t lines = 96;

    for (int step = 0; step < 6000; ++step) {
        const auto core =
            static_cast<unsigned>(rng.nextBelow(m.coreCount()));
        const Addr la = base + lineBytes * rng.nextBelow(lines);
        const std::uint64_t kind = rng.nextBelow(50);
        if (kind == 0) {
            m.flushAll();
        } else if (kind <= 6) {
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
        // Each op raised exactly the faults the oracle predicts.
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

    // The stream reached the miss-path cases this point exists for.
    const MemSysStats s = m.memStats();
    EXPECT_GT(s.fills, 0u);
    EXPECT_GT(s.spills, 0u);
    if (params.mem.wbQueueEntries) {
        EXPECT_GT(s.wbHits, 0u);
    }
    if (m.sharedMemory().coherent()) {
        EXPECT_GT(s.dirtyRecalls, 0u);
    }

    m.flushAll();
    EXPECT_EQ(m.sharedMemory().directoryEntries(), 0u);
    sweep("after flush");
}

/** One one-core geometry. gtest prints a parameter's raw bytes into
 *  each test's listed name, so it has no padding bytes (whose garbage
 *  would change the names from build to build). */
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
    MachineParams p = tinyMachine();
    p.mem.l1Size = param.l1Size;
    p.mem.l2Size = param.l2Size;
    p.mem.l3Size = param.l3Size;
    p.mem.levels = param.levels;
    p.mem.wbQueueEntries = param.wbQueueEntries;
    p.mem.nextLinePrefetch = param.nextLinePrefetch != 0;
    p.mem.l1Format = static_cast<L1Format>(param.l1Format);
    fuzzAgainstOracle(p, param.seed);
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
 *  4-entry write-back queue). */
class MachineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MachineFuzz, TwoCoresAgreeWithOracle)
{
    MachineParams p = tinyMachine();
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    p.mem.mshrEntries = 4;
    p.mem.dramBanks = 8;
    p.mem.wbQueueEntries = 4;
    fuzzAgainstOracle(p, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz,
                         ::testing::Range<std::uint64_t>(1, 5),
                         [](const ::testing::TestParamInfo<std::uint64_t>
                                &info) {
                             return "seed" + std::to_string(info.param);
                         });

/** One named point of the config-space sweep. */
struct ConfigPoint
{
    std::string name;
    MachineParams params;
};

/** Every replacement policy; MSHRs 0/4 x DRAM banks 0/8 on one core;
 *  2-4 MSI cores; write-back queue 0/32 x hierarchy depth 1-3. */
const std::vector<ConfigPoint> &
configSpace()
{
    static const std::vector<ConfigPoint> points = [] {
        std::vector<ConfigPoint> out;
        for (const ReplPolicy policy :
             {ReplPolicy::Lru, ReplPolicy::Random, ReplPolicy::Dip,
              ReplPolicy::Drrip, ReplPolicy::Ship}) {
            MachineParams p = tinyMachine();
            p.mem.replPolicy = policy;
            out.push_back({std::string("repl_") + replPolicyName(policy),
                           p});
        }
        for (const unsigned mshrs : {0u, 4u}) {
            for (const unsigned banks : {0u, 8u}) {
                MachineParams p = tinyMachine();
                p.mem.mshrEntries = mshrs;
                p.mem.dramBanks = banks;
                out.push_back({"mshr" + std::to_string(mshrs) + "_banks" +
                                   std::to_string(banks),
                               p});
            }
        }
        for (const unsigned cores : {2u, 3u, 4u}) {
            MachineParams p = tinyMachine();
            p.core.count = cores;
            p.mem.coherence = CoherenceKind::Msi;
            out.push_back({"msi_cores" + std::to_string(cores), p});
        }
        for (const unsigned wbq : {0u, 32u}) {
            for (const unsigned levels : {1u, 2u, 3u}) {
                MachineParams p = tinyMachine();
                p.mem.wbQueueEntries = wbq;
                p.mem.levels = levels;
                out.push_back({"wbq" + std::to_string(wbq) + "_levels" +
                                   std::to_string(levels),
                               p});
            }
        }
        return out;
    }();
    return points;
}

class ConfigSpaceFuzz : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ConfigSpaceFuzz, AgreesWithOracle)
{
    fuzzAgainstOracle(configSpace()[GetParam()].params, 100 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Points, ConfigSpaceFuzz,
    ::testing::Range<std::size_t>(0, configSpace().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return configSpace()[info.param].name;
    });

} // namespace
} // namespace califorms
