/**
 * @file test_memsys.cc
 * Memory hierarchy tests: functional correctness against a flat
 * reference model, spill/fill conversion at the L1/L2 boundary,
 * security byte fault semantics, whitelisting, CFORM variants, timing
 * monotonicity, the Figure 10 extra-latency knob, and the machine's one
 * functional-write rule at any core count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sentinel.hh"
#include "sim/machine.hh"
#include "util/rng.hh"

namespace califorms
{
namespace
{

/** A tiny hierarchy so evictions happen quickly in tests. */
MemSysParams
tinyParams()
{
    MemSysParams p;
    p.l1Size = 1024;
    p.l1Ways = 2;
    p.l2Size = 4096;
    p.l2Ways = 2;
    p.l3Size = 16384;
    p.l3Ways = 4;
    return p;
}

/** A one-core machine: timed ops go straight to its memory side. */
struct Harness
{
    Machine m;
    MemorySystem &mem;
    ExceptionUnit &exceptions;

    explicit Harness(MemSysParams p = tinyParams())
        : m(MachineParams{.mem = p, .core = {}}),
          mem(m.memorySystem()), exceptions(m.exceptions())
    {}
};

TEST(MemSys, LoadOfUntouchedMemoryIsZero)
{
    Harness h;
    EXPECT_EQ(h.mem.load(0x1000, 8).value, 0u);
}

TEST(MemSys, StoreThenLoadRoundTrip)
{
    Harness h;
    h.mem.store(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(h.mem.load(0x1000, 8).value, 0x1122334455667788ull);
    EXPECT_EQ(h.mem.load(0x1004, 4).value, 0x11223344u);
    EXPECT_EQ(h.mem.load(0x1000, 1).value, 0x88u);
}

TEST(MemSys, LineCrossingAccess)
{
    Harness h;
    // 8B store at offset 60 spans two lines.
    h.mem.store(0x103c, 8, 0xaabbccdd00112233ull);
    EXPECT_EQ(h.mem.load(0x103c, 8).value, 0xaabbccdd00112233ull);
    EXPECT_EQ(h.mem.load(0x1040, 4).value, 0xaabbccddu);
}

TEST(MemSys, FunctionalMatchesTimedUnderEvictionPressure)
{
    // Write a footprint far larger than L3 and verify every value both
    // through the timed interface and the functional peek (write-back
    // correctness through all levels).
    Harness h;
    Rng rng(1);
    std::map<Addr, std::uint64_t> reference;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = 0x10000 + 8 * (rng.nextBelow(8192));
        const std::uint64_t v = rng.next();
        h.mem.store(addr, 8, v);
        reference[addr] = v;
    }
    for (const auto &[addr, v] : reference) {
        EXPECT_EQ(h.mem.load(addr, 8).value, v) << std::hex << addr;
    }
    for (const auto &[addr, v] : reference) {
        std::uint64_t peeked = 0;
        for (unsigned b = 0; b < 8; ++b)
            peeked |= static_cast<std::uint64_t>(h.m.peekByte(addr + b))
                      << (8 * b);
        EXPECT_EQ(peeked, v);
    }
}

TEST(MemSys, FlushAllPushesEverythingToDram)
{
    Harness h;
    h.mem.store(0x2000, 8, 0xdeadbeefull);
    h.m.flushAll();
    const SentinelLine line =
        h.m.sharedMemory().memory().readLine(0x2000);
    std::uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b)
        v |= static_cast<std::uint64_t>(line.raw[b]) << (8 * b);
    EXPECT_EQ(v, 0xdeadbeefull);
    // And the data is still loadable afterwards.
    EXPECT_EQ(h.mem.load(0x2000, 8).value, 0xdeadbeefull);
}

TEST(MemSys, CformSetsSecurityBytesAndTheySurviveEviction)
{
    Harness h;
    h.mem.store(0x3000, 8, 0x0807060504030201ull);
    CformOp op = makeSetOp(0x3000, 0xff00ull); // bytes 8..15
    EXPECT_FALSE(h.mem.cform(op).faulted);
    EXPECT_EQ(h.m.securityMask(0x3000), 0xff00ull);

    // Evict through capacity pressure: write many conflicting lines.
    for (int i = 0; i < 4000; ++i)
        h.mem.store(0x100000 + 64 * i, 8, i);

    // Mask and data must survive the spill/fill round trips.
    EXPECT_EQ(h.m.securityMask(0x3000), 0xff00ull);
    EXPECT_EQ(h.mem.load(0x3000, 8).value, 0x0807060504030201ull);
    EXPECT_GT(h.m.memStats().spills, 0u);
}

TEST(MemSys, CaliformedBitReachesDramEcc)
{
    Harness h;
    CformOp op = makeSetOp(0x4000, 0x1ull);
    h.mem.cform(op);
    h.m.flushAll();
    EXPECT_TRUE(
        h.m.sharedMemory().memory().readLine(0x4000).califormed);
    // A clean line's ECC bit stays clear.
    h.mem.store(0x5000, 8, 1);
    h.m.flushAll();
    EXPECT_FALSE(
        h.m.sharedMemory().memory().readLine(0x5000).califormed);
}

TEST(MemSys, LoadOfSecurityByteFaultsAndReturnsZero)
{
    Harness h;
    h.mem.store(0x3000, 8, ~0ull);
    h.mem.cform(makeSetOp(0x3000, 0x0full)); // bytes 0..3
    const auto res = h.mem.load(0x3000, 8);
    EXPECT_TRUE(res.faulted);
    // Security bytes read as the pre-determined zero (Section 5.1).
    EXPECT_EQ(res.value & 0xffffffffull, 0u);
    EXPECT_EQ(res.value >> 32, 0xffffffffull);
    ASSERT_EQ(h.exceptions.deliveredCount(), 1u);
    EXPECT_EQ(h.exceptions.delivered()[0].faultAddr, 0x3000u);
    EXPECT_EQ(h.exceptions.delivered()[0].reason,
              FaultReason::LoadSecurityByte);
}

TEST(MemSys, PreciseFaultAddressIsFirstSecurityByteTouched)
{
    Harness h;
    h.mem.cform(makeSetOp(0x3000, 0x30ull)); // bytes 4 and 5
    h.mem.load(0x3002, 8);                   // touches 2..9
    ASSERT_EQ(h.exceptions.deliveredCount(), 1u);
    EXPECT_EQ(h.exceptions.delivered()[0].faultAddr, 0x3004u);
}

TEST(MemSys, StoreToSecurityByteFaultsAndDoesNotCommit)
{
    Harness h;
    h.mem.cform(makeSetOp(0x3000, 0xffull));
    const auto res = h.mem.store(0x3000, 8, ~0ull);
    EXPECT_TRUE(res.faulted);
    ASSERT_EQ(h.exceptions.deliveredCount(), 1u);
    EXPECT_EQ(h.exceptions.delivered()[0].reason,
              FaultReason::StoreSecurityByte);
    // The store did not commit: bytes still zero, mask intact.
    EXPECT_EQ(h.m.peekByte(0x3000), 0u);
    EXPECT_EQ(h.m.securityMask(0x3000), 0xffull);
}

TEST(MemSys, WhitelistedStoreProceedsWithoutMetadataChange)
{
    Harness h;
    h.mem.cform(makeSetOp(0x3000, 0x02ull)); // byte 1
    {
        WhitelistGuard guard(h.exceptions);
        const auto res = h.mem.store(0x3000, 4, 0x04030201);
        EXPECT_TRUE(res.faulted); // recorded as suppressed
    }
    EXPECT_EQ(h.exceptions.deliveredCount(), 0u);
    EXPECT_EQ(h.exceptions.suppressedCount(), 1u);
    // Data bytes written; blacklist survives.
    EXPECT_EQ(h.m.peekByte(0x3000), 0x01);
    EXPECT_EQ(h.m.securityMask(0x3000), 0x02ull);
}

TEST(MemSys, L1DataPathMatchesByteReferenceAtEverySizeAndOffset)
{
    // Every size 1-8 at every offset of a califormed line, the tail
    // offsets split into a second califormed line, against a byte
    // array: each segment of an access faults on its own lowest
    // security byte, a delivered store commits only its fault-free
    // segments, a whitelisted store writes every byte, and no store
    // moves a mask.
    Harness h;
    constexpr Addr kBase = 0x3000;
    constexpr SecurityMask kMasks[2] = {0x8000'0100'0002'0021ull,
                                        0x0000'0002'0000'0006ull};
    std::uint8_t ref[2 * lineBytes];
    Rng rng(0x11DA);
    for (unsigned i = 0; i < 2 * lineBytes; ++i) {
        ref[i] = static_cast<std::uint8_t>(rng.next());
        h.m.pokeByte(kBase + i, ref[i]);
    }
    for (unsigned l = 0; l < 2; ++l) {
        h.mem.cform(makeSetOp(kBase + l * lineBytes, kMasks[l]));
        for (unsigned i = 0; i < lineBytes; ++i)
            if (testBit(kMasks[l], i))
                ref[l * lineBytes + i] = 0;
    }

    const auto checkState = [&](const std::string &what) {
        for (unsigned i = 0; i < 2 * lineBytes; ++i)
            ASSERT_EQ(h.m.peekByte(kBase + i), ref[i]) << what << i;
        for (unsigned l = 0; l < 2; ++l)
            ASSERT_EQ(h.m.securityMask(kBase + l * lineBytes), kMasks[l])
                << what;
    };
    const auto faultAddrs =
        [](const std::vector<CaliformsException> &log) {
            std::vector<Addr> addrs;
            for (const CaliformsException &e : log)
                addrs.push_back(e.faultAddr);
            return addrs;
        };

    for (unsigned size = 1; size <= 8; ++size) {
        for (unsigned off = 0; off < lineBytes; ++off) {
            const std::string at = "size " + std::to_string(size) +
                                   " off " + std::to_string(off) + ": ";
            // The segments [lo, hi) of ref the access splits into, and
            // the first security byte of each that has one.
            const unsigned first = std::min<unsigned>(size, lineBytes - off);
            std::vector<std::pair<unsigned, unsigned>> segments = {
                {off, off + first}};
            if (first < size)
                segments.push_back({lineBytes, off + size});
            std::vector<Addr> faults;
            std::vector<bool> segmentFaults;
            for (const auto &[lo, hi] : segments) {
                unsigned i = lo;
                while (i < hi && !testBit(kMasks[i / lineBytes],
                                          i % lineBytes))
                    ++i;
                segmentFaults.push_back(i < hi);
                if (i < hi)
                    faults.push_back(kBase + i);
            }

            std::uint64_t want = 0;
            for (unsigned i = 0; i < size; ++i)
                want |= std::uint64_t{ref[off + i]} << (8 * i);
            h.exceptions.clearLogs();
            const auto load = h.mem.load(kBase + off, size);
            EXPECT_EQ(load.value, want) << at << "load";
            EXPECT_EQ(load.faulted, !faults.empty()) << at << "load";
            EXPECT_EQ(faultAddrs(h.exceptions.delivered()), faults)
                << at << "load";

            std::uint64_t value = rng.next();
            h.exceptions.clearLogs();
            const auto store = h.mem.store(kBase + off, size, value);
            EXPECT_EQ(store.faulted, !faults.empty()) << at << "store";
            EXPECT_EQ(faultAddrs(h.exceptions.delivered()), faults)
                << at << "store";
            for (std::size_t s = 0; s < segments.size(); ++s)
                for (unsigned i = segments[s].first;
                     i < segments[s].second; ++i)
                    if (!segmentFaults[s])
                        ref[i] = static_cast<std::uint8_t>(
                            value >> (8 * (i - off)));
            checkState(at + "store ");

            value = rng.next();
            h.exceptions.clearLogs();
            {
                WhitelistGuard guard(h.exceptions);
                const auto wl = h.mem.store(kBase + off, size, value);
                EXPECT_EQ(wl.faulted, !faults.empty()) << at << "wl";
            }
            EXPECT_EQ(h.exceptions.deliveredCount(), 0u) << at;
            EXPECT_EQ(faultAddrs(h.exceptions.suppressed()), faults)
                << at << "whitelisted store";
            for (unsigned i = 0; i < size; ++i)
                ref[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
            checkState(at + "whitelisted store ");

            // Re-zero the security bytes the whitelisted store wrote
            // (unset + set restores canonical form), so every load
            // above reads a canonical line.
            for (unsigned l = 0; l < 2; ++l) {
                const Addr la = kBase + l * lineBytes;
                h.mem.cform(makeUnsetOp(la, kMasks[l]));
                h.mem.cform(makeSetOp(la, kMasks[l]));
                for (unsigned i = 0; i < lineBytes; ++i)
                    if (testBit(kMasks[l], i))
                        ref[l * lineBytes + i] = 0;
            }
        }
    }
    EXPECT_EQ(h.exceptions.deliveredCount(), 0u);
}

TEST(MemSys, CformSetOnSecurityByteFaults)
{
    Harness h;
    h.mem.cform(makeSetOp(0x3000, 0x1ull));
    const auto res = h.mem.cform(makeSetOp(0x3000, 0x1ull));
    EXPECT_TRUE(res.faulted);
    EXPECT_EQ(h.exceptions.delivered().back().reason,
              FaultReason::CformSetOnSecurity);
}

TEST(MemSys, CformUnsetRestoresAccess)
{
    Harness h;
    h.mem.cform(makeSetOp(0x3000, 0xf0ull));
    h.mem.cform(makeUnsetOp(0x3000, 0xf0ull));
    EXPECT_EQ(h.m.securityMask(0x3000), 0u);
    const auto res = h.mem.load(0x3004, 4);
    EXPECT_FALSE(res.faulted);
    EXPECT_EQ(res.value, 0u); // zeroed by the blacklist/unblacklist cycle
}

TEST(MemSys, NonTemporalCformSkipsL1)
{
    Harness h;
    CformOp op = makeSetOp(0x6000, 0xffull);
    op.nonTemporal = true;
    EXPECT_FALSE(h.mem.cform(op).faulted);
    EXPECT_EQ(h.m.securityMask(0x6000), 0xffull);
    // The line went to L2, not L1: a subsequent load misses in L1.
    const auto before = h.m.memStats().l1.misses;
    h.mem.load(0x6020, 4);
    EXPECT_EQ(h.m.memStats().l1.misses, before + 1);
}

TEST(MemSys, NonTemporalCformFaultChecksStillApply)
{
    Harness h;
    CformOp op = makeUnsetOp(0x6000, 0x1ull);
    op.nonTemporal = true;
    EXPECT_TRUE(h.mem.cform(op).faulted);
}

/** Leave 0x3000 L1-resident and clean with bytes 0..7 blacklisted: set
 *  the bytes, push the line out of the core, then reload it. */
void
makeCleanCaliformedLine(Harness &h)
{
    h.mem.cform(makeSetOp(0x3000, 0xffull));
    h.m.flushAll();
    h.mem.load(0x3008, 8);
    h.mem.clearStats();
}

/** Stream clean loads through every L1 set so the line at 0x3000 is
 *  evicted; returns how many L1 evictions were dirty. */
std::uint64_t
dirtyEvictionsAfterStream(Harness &h)
{
    for (int i = 0; i < 64; ++i)
        h.mem.load(0x100000 + 64 * i, 8);
    EXPECT_GT(h.m.memStats().l1.evictions, 0u);
    return h.m.memStats().l1.dirtyEvictions;
}

TEST(MemSys, CommittedCformDirtiesL1Line)
{
    // Control for the tests below: a committed CFORM on the same clean
    // line is written back when evicted.
    Harness h;
    makeCleanCaliformedLine(h);
    EXPECT_FALSE(h.mem.cform(makeUnsetOp(0x3000, 0x1ull)).faulted);
    EXPECT_EQ(dirtyEvictionsAfterStream(h), 1u);
}

TEST(MemSys, DeliveredStoreFaultLeavesL1LineClean)
{
    Harness h;
    makeCleanCaliformedLine(h);
    EXPECT_TRUE(h.mem.store(0x3000, 8, ~0ull).faulted);
    ASSERT_EQ(h.exceptions.deliveredCount(), 1u);
    EXPECT_EQ(h.m.memStats().l1.hits, 1u);
    EXPECT_EQ(dirtyEvictionsAfterStream(h), 0u);
}

TEST(MemSys, CformFaultLeavesL1LineClean)
{
    Harness h;
    makeCleanCaliformedLine(h);
    EXPECT_TRUE(h.mem.cform(makeSetOp(0x3000, 0x1ull)).faulted);
    EXPECT_EQ(h.m.memStats().l1.hits, 1u);
    EXPECT_EQ(dirtyEvictionsAfterStream(h), 0u);
}

TEST(MemSys, NonTemporalCformFaultLeavesL1LineCleanAndUnchanged)
{
    Harness h;
    makeCleanCaliformedLine(h);
    // Byte 8 is legal to set, byte 0 faults: the in-place update of the
    // resident line must not happen at all.
    CformOp op = makeSetOp(0x3000, 0x101ull);
    op.nonTemporal = true;
    EXPECT_TRUE(h.mem.cform(op).faulted);
    EXPECT_EQ(h.m.memStats().l1.hits, 1u);
    EXPECT_EQ(h.m.securityMask(0x3000), 0xffull);
    EXPECT_EQ(dirtyEvictionsAfterStream(h), 0u);
}

TEST(MemSysTiming, HitLatenciesFollowTable3)
{
    MemSysParams p; // full-size defaults
    Harness h(p);
    MemorySystem &mem = h.mem;
    // First access: L1 miss, L2 miss, L3 miss -> DRAM.
    const auto miss = mem.load(0x1000, 8);
    EXPECT_EQ(miss.latency,
              p.l1Latency + p.l2Latency + p.l3Latency + p.dramLatency);
    // Second access: L1 hit.
    const auto hit = mem.load(0x1000, 8);
    EXPECT_EQ(hit.latency, p.l1Latency);
}

TEST(MemSysTiming, ExtraL2L3LatencyKnob)
{
    MemSysParams p;
    p.extraL2L3Latency = 1; // the Figure 10 configuration
    Harness h(p);
    MemorySystem &mem = h.mem;
    const auto miss = mem.load(0x1000, 8);
    EXPECT_EQ(miss.latency, p.l1Latency + (p.l2Latency + 1) +
                                (p.l3Latency + 1) + p.dramLatency);
}

TEST(MemSysTiming, L2HitLatency)
{
    MemSysParams p = tinyParams();
    Harness h(p);
    MemorySystem &mem = h.mem;
    mem.load(0x1000, 8); // now in L1+L2+L3
    // Evict from tiny L1 with a conflicting line (same set).
    mem.load(0x1000 + 1024, 8);
    mem.load(0x1000 + 2048, 8);
    const auto res = mem.load(0x1000, 8); // should hit in L2
    EXPECT_EQ(res.latency, p.l1Latency + p.l2Latency);
}

TEST(MemSys, StatsCountersAreConsistent)
{
    Harness h;
    for (int i = 0; i < 100; ++i)
        h.mem.load(0x8000 + 64 * i, 8);
    const auto stats = h.m.memStats();
    EXPECT_EQ(stats.l1.misses, 100u);
    EXPECT_EQ(stats.l2.misses, 100u);
    EXPECT_EQ(stats.dramAccesses, 100u);
    for (int i = 0; i < 100; ++i)
        h.mem.load(0x8000 + 64 * i, 8);
    // Tiny L1 (16 lines) cannot hold 100 lines; L2 (64 lines) cannot
    // either, but L3 (256 lines) holds them all.
    const auto stats2 = h.m.memStats();
    EXPECT_EQ(stats2.dramAccesses, 100u);
}

TEST(MemSys, PokePeekBypassChecks)
{
    Harness h;
    h.mem.cform(makeSetOp(0x9000, 0x1ull));
    h.m.pokeByte(0x9000, 0x55); // backdoor write to a security byte
    EXPECT_EQ(h.m.peekByte(0x9000), 0x55);
    EXPECT_EQ(h.exceptions.deliveredCount(), 0u);
    EXPECT_EQ(h.m.securityMask(0x9000), 0x1ull);
}

TEST(MachineFunctional, PokeWritesThroughAndLeavesTheL1LineClean)
{
    // One functional-write rule at any core count: a poke writes every
    // private copy and the shared side, and leaves dirty bits alone.
    Harness h;
    h.mem.load(0x3000, 8); // clean and L1-resident
    h.m.pokeByte(0x3005, 0xab);
    EXPECT_EQ(fillLine(h.m.sharedMemory().functionalRead(0x3000)).data[5],
              0xab);
    h.mem.clearStats();
    for (int i = 0; i < 64; ++i)
        h.mem.load(0x100000 + 64 * i, 8);
    BitVectorLine copy;
    ASSERT_FALSE(h.mem.peekPrivateLine(0x3000, copy));
    EXPECT_EQ(h.m.memStats().l1.dirtyEvictions, 0u);
    EXPECT_EQ(h.m.peekByte(0x3005), 0xab);
}

TEST(MachineFunctional, PokesReadBackTheSameOnOneAndTwoCores)
{
    const auto pokeAndRead = [](unsigned cores) {
        MachineParams p;
        p.mem = tinyParams();
        p.core.count = cores;
        p.mem.coherence = CoherenceKind::Msi;
        Machine m(p);
        const unsigned last = cores - 1;
        m.storeOn(0, 0x3000, 8, 0x1122334455667788ull); // dirty, core 0
        m.loadOn(last, 0x4000, 8);                      // clean, last core
        m.cformOn(last, makeSetOp(0x5000, 0xf0ull));     // califormed
        m.pokeByte(0x3001, 0xa1);
        m.pokeByte(0x4002, 0xb2);
        m.pokeByte(0x5004, 0xc3); // a security byte
        m.pokeByte(0x6003, 0xd4); // held by no core
        std::vector<std::uint8_t> seen;
        for (int pass = 0; pass < 2; ++pass) {
            for (const Addr la : {0x3000, 0x4000, 0x5000, 0x6000}) {
                const auto bytes = m.peekBytes(la, lineBytes);
                seen.insert(seen.end(), bytes.begin(), bytes.end());
                seen.push_back(
                    static_cast<std::uint8_t>(m.securityMask(la)));
                seen.push_back(
                    static_cast<std::uint8_t>(m.loadOn(last, la, 8)));
            }
            m.flushAll();
        }
        return seen;
    };
    const std::vector<std::uint8_t> one = pokeAndRead(1);
    EXPECT_EQ(one, pokeAndRead(2));
    EXPECT_EQ(one[1], 0xa1);
}

TEST(MemSys, RejectsBadSizes)
{
    Harness h;
    EXPECT_THROW(h.mem.load(0, 0), std::invalid_argument);
    EXPECT_THROW(h.mem.load(0, 9), std::invalid_argument);
    EXPECT_THROW(h.mem.store(0, 16, 0), std::invalid_argument);
    EXPECT_THROW(h.mem.cform(makeSetOp(3, 1)), std::invalid_argument);
}

} // namespace
} // namespace califorms
