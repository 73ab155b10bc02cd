/**
 * @file test_hierarchy.cc
 * Configurable multi-level hierarchy tests: level-count equivalences
 * (levels=2 with the L2 disabled is exactly the levels=1 machine, the
 * explicit default reproduces the implicit one), conversion counting
 * and latency charging at the L1 boundary, and the dirty write-back
 * queue (victim-buffer hits, forced drains, functional correctness
 * under eviction pressure), and the shared side's one data store
 * behind its tag-only levels.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/cform.hh"
#include "core/sentinel.hh"
#include "sim/machine.hh"
#include "util/rng.hh"
#include "workload/runner.hh"

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

    explicit Harness(MemSysParams p = tinyParams())
        : m(MachineParams{.mem = p, .core = {}}), mem(m.memorySystem())
    {}
};

/** The mcf benchmark at test scale under one memory configuration. */
RunResult
runMcf(const MemSysParams &mem)
{
    RunConfig config;
    config.scale = 0.05;
    config.policy = InsertionPolicy::Full;
    config.policyParams.maxSpan = 3;
    config.withCform(true);
    config.machine.mem = mem;
    return runBenchmark(findBenchmark("mcf"), config);
}

bool
sameCounters(const RunResult &a, const RunResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.mem.l1.hits == b.mem.l1.hits &&
           a.mem.l1.misses == b.mem.l1.misses &&
           a.mem.dramAccesses == b.mem.dramAccesses &&
           a.mem.fills == b.mem.fills && a.mem.spills == b.mem.spills &&
           a.mem.securityFaults == b.mem.securityFaults;
}

TEST(Hierarchy, RejectsBadLevelCounts)
{
    for (const unsigned levels : {0u, 4u, 99u}) {
        MemSysParams p = tinyParams();
        p.levels = levels;
        EXPECT_THROW(Machine(MachineParams{.mem = p, .core = {}}),
                     std::invalid_argument)
            << levels;
    }
}

TEST(Hierarchy, LevelCountSelectsEnabledLevels)
{
    for (const auto &[levels, expected] :
         std::map<unsigned, std::size_t>{{1, 0}, {2, 1}, {3, 2}}) {
        MemSysParams p = tinyParams();
        p.levels = levels;
        Harness h(p);
        EXPECT_EQ(h.m.sharedMemory().levelCount(), expected);
    }
}

TEST(Hierarchy, ZeroSizeDisablesALevel)
{
    MemSysParams p = tinyParams();
    p.l2Size = 0; // levels stays 3: L1 + LLC machine
    Harness h(p);
    EXPECT_EQ(h.m.sharedMemory().levelCount(), 1u);
    const auto stats = h.m.memStats();
    EXPECT_EQ(stats.l2.hits + stats.l2.misses, 0u);
}

TEST(Hierarchy, MissLatencyReflectsTheConfiguredDepth)
{
    // One cold miss per depth: the latency sum must walk exactly the
    // enabled levels.
    MemSysParams p = tinyParams();

    p.levels = 1;
    EXPECT_EQ(Harness(p).mem.load(0x1000, 8).latency,
              p.l1Latency + p.dramLatency);

    p.levels = 2;
    EXPECT_EQ(Harness(p).mem.load(0x1000, 8).latency,
              p.l1Latency + p.l2Latency + p.dramLatency);

    p.levels = 3;
    EXPECT_EQ(Harness(p).mem.load(0x1000, 8).latency,
              p.l1Latency + p.l2Latency + p.l3Latency + p.dramLatency);
}

TEST(Hierarchy, DisabledL2AtTwoLevelsEqualsOneLevelMachine)
{
    // The acceptance equivalence: levels=2 with the L2 disabled must be
    // byte-for-byte the levels=1 machine, counters included.
    MemSysParams two = MemSysParams{};
    two.levels = 2;
    two.l2Size = 0;
    MemSysParams one = MemSysParams{};
    one.levels = 1;
    EXPECT_TRUE(sameCounters(runMcf(two), runMcf(one)));
}

TEST(Hierarchy, ExplicitDefaultEqualsImplicitDefault)
{
    MemSysParams expl = MemSysParams{};
    expl.levels = 3;
    EXPECT_TRUE(sameCounters(runMcf(expl), runMcf(MemSysParams{})));
}

TEST(Hierarchy, ShallowerHierarchiesPayMoreDram)
{
    const RunResult three = runMcf(MemSysParams{});
    MemSysParams p1 = MemSysParams{};
    p1.levels = 1;
    const RunResult one = runMcf(p1);
    EXPECT_GT(one.mem.dramAccesses, three.mem.dramAccesses);
    EXPECT_GT(one.cycles, three.cycles);
}

TEST(Hierarchy, ConversionCountersAreLiveAtEveryDepth)
{
    // A califormed working set converts at the L1 boundary no matter
    // how deep the hierarchy is: fills and spills must be non-zero both
    // with an L2 (L1<->L2 boundary) and without one (L1<->DRAM).
    for (const unsigned levels : {1u, 2u, 3u}) {
        MemSysParams p = MemSysParams{};
        p.levels = levels;
        const RunResult r = runMcf(p);
        EXPECT_GT(r.mem.fills, 0u) << "levels=" << levels;
        EXPECT_GT(r.mem.spills, 0u) << "levels=" << levels;
    }
}

TEST(Hierarchy, FillConversionLatencyIsChargedPerFill)
{
    // A deliberately extreme 2000 cycles per fill: mcf at this scale
    // sits exactly on the DRAM bandwidth roofline (cycles ==
    // dramAccesses * dramCyclesPerLine), so a realistic charge
    // disappears under it — the point of this test is only that the
    // charge reaches the core model at all; the exact per-access
    // accounting is DirectFillLatencyConversionCharge below.
    MemSysParams charged = MemSysParams{};
    charged.fillConvLatency = 2000;
    const RunResult with = runMcf(charged);
    const RunResult without = runMcf(MemSysParams{});
    EXPECT_EQ(with.mem.fills, without.mem.fills);
    EXPECT_EQ(with.mem.fillConvCycles, 2000 * with.mem.fills);
    EXPECT_EQ(without.mem.fillConvCycles, 0u);
    EXPECT_GT(with.cycles, without.cycles);
}

TEST(Hierarchy, SpillConversionLatencyIsChargedPerSpill)
{
    MemSysParams charged = MemSysParams{};
    charged.spillConvLatency = 3;
    const RunResult with = runMcf(charged);
    const RunResult without = runMcf(MemSysParams{});
    EXPECT_EQ(with.mem.spills, without.mem.spills);
    EXPECT_EQ(with.mem.spillConvCycles, 3 * with.mem.spills);
    EXPECT_EQ(without.mem.spillConvCycles, 0u);
    EXPECT_GE(with.cycles, without.cycles);
}

TEST(Hierarchy, DirectFillLatencyConversionCharge)
{
    // Unit-level check of the charge: a miss on a califormed line costs
    // exactly fillConvLatency more than the same miss without the
    // charge.
    MemSysParams p = tinyParams();
    Harness plain(p);
    p.fillConvLatency = 7;
    Harness charged(p);

    for (Harness *h : {&plain, &charged}) {
        h->mem.store(0x9000, 8, 1);
        CformOp op = makeSetOp(0x9000, 0xf0ull);
        ASSERT_FALSE(h->mem.cform(op).faulted);
        h->m.flushAll(); // force the next access to re-fill
    }
    const Cycles base = plain.mem.load(0x9000, 8).latency;
    const Cycles extra = charged.mem.load(0x9000, 8).latency;
    EXPECT_EQ(extra, base + 7);
    EXPECT_EQ(charged.m.memStats().fillConvCycles, 7u);
}

TEST(WbQueue, DisabledByDefault)
{
    Harness h;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i)
        h.mem.store(0x10000 + 64 * rng.nextBelow(512), 8, rng.next());
    const auto stats = h.m.memStats();
    EXPECT_EQ(stats.wbEnqueued, 0u);
    EXPECT_EQ(stats.wbHits, 0u);
    EXPECT_EQ(stats.wbPeakOccupancy, 0u);
}

TEST(WbQueue, FunctionalCorrectnessUnderEvictionPressure)
{
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 4;
    Harness h(p);
    Rng rng(2);
    std::map<Addr, std::uint64_t> reference;
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = 0x10000 + 8 * rng.nextBelow(8192);
        const std::uint64_t v = rng.next();
        h.mem.store(addr, 8, v);
        reference[addr] = v;
    }
    const auto stats = h.m.memStats();
    EXPECT_GT(stats.wbEnqueued, 0u);
    EXPECT_LE(stats.wbPeakOccupancy, 5u); // entries + transient push
    for (const auto &[addr, v] : reference)
        ASSERT_EQ(h.mem.load(addr, 8).value, v) << std::hex << addr;
    for (const auto &[addr, v] : reference) {
        std::uint64_t peeked = 0;
        for (unsigned b = 0; b < 8; ++b)
            peeked |=
                static_cast<std::uint64_t>(h.m.peekByte(addr + b))
                << (8 * b);
        ASSERT_EQ(peeked, v) << std::hex << addr;
    }
}

TEST(WbQueue, VictimHitPullsTheDirtyLineBack)
{
    // Two-way 1KB L1 (8 sets): three lines mapping to one set force an
    // eviction; re-touching the victim immediately must hit the queue,
    // keep the data, and keep the line dirty (a second eviction still
    // reaches memory).
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 8;
    Harness h(p);

    const Addr a = 0x20000;           // set 0
    const Addr b = a + 8 * 64;        // same set, way 2
    const Addr c = a + 16 * 64;       // same set -> evicts a
    h.mem.store(a, 8, 0x1111);
    h.mem.store(b, 8, 0x2222);
    h.mem.store(c, 8, 0x3333);        // a is now in the WB queue

    EXPECT_EQ(h.m.memStats().wbEnqueued, 1u);
    EXPECT_EQ(h.mem.load(a, 8).value, 0x1111u);
    EXPECT_EQ(h.m.memStats().wbHits, 1u);

    // The pulled-back line must still be dirty: push it out again and
    // flush everything; the store must survive to DRAM.
    h.mem.store(b, 8, 0x2222);
    h.mem.store(c, 8, 0x3333);
    h.m.flushAll();
    std::uint64_t v = 0;
    const SentinelLine line = h.m.sharedMemory().memory().readLine(a);
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(line.raw[i]) << (8 * i);
    EXPECT_EQ(v, 0x1111u);
}

TEST(WbQueue, VictimHitLatencyBeatsTheFullPath)
{
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 8;
    Harness h(p);
    const Addr a = 0x20000;
    h.mem.store(a, 8, 0x1111);
    h.mem.store(a + 8 * 64, 8, 0x2222);
    h.mem.store(a + 16 * 64, 8, 0x3333); // evicts a into the queue
    const Cycles hit = h.mem.load(a, 8).latency;
    EXPECT_EQ(hit, p.l1Latency + p.wbHitLatency);
    EXPECT_LT(hit, p.l1Latency + p.l2Latency);
}

TEST(WbQueue, ForcedDrainsOnOverflow)
{
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 1;
    Harness h(p);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i)
        h.mem.store(0x10000 + 64 * rng.nextBelow(512), 8, rng.next());
    const auto stats = h.m.memStats();
    EXPECT_GT(stats.wbForcedDrains, 0u);
    EXPECT_LE(stats.wbPeakOccupancy, 2u);
}

TEST(WbQueue, CaliformedLinesSurviveTheQueue)
{
    // The spill conversion happens before the queue; a victim hit must
    // restore the full blacklist metadata.
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 8;
    Harness h(p);
    const Addr a = 0x20000;
    h.mem.store(a, 8, 0x0102030405060708ull);
    CformOp op = makeSetOp(a, 0xff00ull);
    ASSERT_FALSE(h.mem.cform(op).faulted);
    h.mem.store(a + 8 * 64, 8, 0x2222);
    h.mem.store(a + 16 * 64, 8, 0x3333); // evict the califormed line
    ASSERT_GE(h.m.memStats().spills, 1u);
    EXPECT_EQ(h.m.securityMask(a), 0xff00ull);
    EXPECT_EQ(h.mem.load(a, 8).value, 0x0102030405060708ull);
    EXPECT_GE(h.m.memStats().fills, 1u);
    EXPECT_EQ(h.m.memStats().wbHits, 1u);
}

TEST(WbQueue, FaultingNonTemporalCformDoesNotDropTheQueuedLine)
{
    // Regression: fetchBelowL1 pulls the queued line out (the only
    // up-to-date copy); when the CFORM then faults, the line must be
    // restored, not silently dropped.
    MemSysParams p = tinyParams();
    p.wbQueueEntries = 8;
    Harness h(p);
    const Addr a = 0x20000;
    h.mem.store(a, 8, 0x1111111122222222ull);
    h.mem.store(a + 8 * 64, 8, 0x2222);
    h.mem.store(a + 16 * 64, 8, 0x3333); // a evicted into the queue
    ASSERT_EQ(h.m.memStats().wbEnqueued, 1u);

    CformOp op = makeUnsetOp(a, 0x1ull); // unset on a normal byte: faults
    op.nonTemporal = true;
    EXPECT_TRUE(h.mem.cform(op).faulted);

    EXPECT_EQ(h.mem.load(a, 8).value, 0x1111111122222222ull);
    EXPECT_EQ(h.m.peekByte(a), 0x22);
}

TEST(Hierarchy, RunnerEquivalenceAcrossJobsStyleRepeat)
{
    // Repeating the same hierarchy config must reproduce identical
    // counters (the campaign determinism property at the memsys level).
    MemSysParams p = MemSysParams{};
    p.levels = 2;
    p.wbQueueEntries = 8;
    const RunResult a = runMcf(p);
    const RunResult b = runMcf(p);
    EXPECT_TRUE(sameCounters(a, b));
    EXPECT_EQ(a.mem.wbHits, b.mem.wbHits);
    EXPECT_EQ(a.mem.wbEnqueued, b.mem.wbEnqueued);
}

// ---------------------------------------------------------------------
// The shared levels keep only tags, dirty and califormed bits; one
// store holds each line's newest shared-side value. These pin the
// cases where the store's value is not the one DRAM would hold.

/** A private side that holds nothing, so SharedMemory can be driven
 *  directly. */
struct NullPeer : CoherencePeer
{
    Surrender surrenderLine(Addr, bool) override { return {}; }
    void drainOneWriteBack() override {}
};

/** An encoded line told apart by its first byte (the shared side never
 *  decodes it). */
SentinelLine
lineWith(std::uint8_t first, bool califormed = false)
{
    SentinelLine line;
    line.raw[0] = first;
    line.califormed = califormed;
    return line;
}

// tinyParams: the L2 has 32 sets of 2 ways and the LLC 64 sets of 4, so
// lines 2 KiB apart share an L2 set and lines 4 KiB apart share both.

TEST(SharedStore, DirtyL2LineShadowingAStaleLlcCopyReadsNewest)
{
    SharedMemory shared(tinyParams());
    NullPeer peer;
    shared.attachPeer(peer);
    const Addr a = 0x100000;
    Cycles latency = 0;
    SentinelLine handoff;
    // The first byte of a's line as a demand fetch reads it.
    const auto fetchFirstByte = [&] {
        return shared.fetchLine(a, latency, 0, false, handoff).line.data->bytes[0];
    };
    fetchFirstByte();                    // clean in the L2 and LLC
    shared.writeBack(a, lineWith(0x5a)); // dirty in the L2 only
    EXPECT_EQ(shared.functionalRead(a).raw[0], 0x5a);
    EXPECT_EQ(fetchFirstByte(), 0x5a);
    EXPECT_EQ(shared.stats().l2.hits, 1u);

    // Two more lines in a's L2 set push it out dirty; it replaces the
    // stale LLC copy, which then serves the next fetch.
    shared.fetchLine(a + 2048, latency, 0, false, handoff);
    shared.fetchLine(a + 4096, latency, 0, false, handoff);
    EXPECT_EQ(shared.stats().l2.dirtyEvictions, 1u);
    EXPECT_EQ(shared.functionalRead(a).raw[0], 0x5a);
    const std::uint64_t dram = shared.dramAccesses();
    EXPECT_EQ(fetchFirstByte(), 0x5a);
    EXPECT_EQ(shared.stats().l3.hits, 1u);
    EXPECT_EQ(shared.dramAccesses(), dram);

    shared.flushLevels();
    EXPECT_EQ(shared.memory().peek(a).data->bytes[0], 0x5a);
    EXPECT_EQ(shared.functionalRead(a).raw[0], 0x5a);
    EXPECT_EQ(fetchFirstByte(), 0x5a);
    EXPECT_EQ(shared.dramAccesses(), dram + 1);
}

TEST(SharedStore, MsiReadRecallIsTheSharedValue)
{
    MachineParams p;
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    Machine m(p);
    const Addr line = 0x60000;
    m.storeOn(0, line, 8, 0x1122334455667788ull); // modified in core 0
    const std::uint64_t dram = m.sharedMemory().dramAccesses();
    EXPECT_EQ(m.loadOn(1, line, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.memStats().dirtyRecalls, 1u);
    // The recall was deposited in the L2, which served core 1: no DRAM
    // access, yet the shared side already reads the recalled data.
    EXPECT_EQ(m.sharedMemory().dramAccesses(), dram);
    const BitVectorLine shared =
        fillLine(m.sharedMemory().functionalRead(line));
    EXPECT_EQ(shared.data[0], 0x88);
    EXPECT_EQ(shared.data[7], 0x11);
    m.flushAll();
    EXPECT_EQ(fillLine(m.sharedMemory().memory().peek(line)).data[0],
              0x88);
}

TEST(SharedStore, CaliformedBitFollowsTheTagIntoTheLlc)
{
    SharedMemory shared(tinyParams());
    NullPeer peer;
    shared.attachPeer(peer);
    const Addr a = 0x100000;
    shared.writeBack(a, lineWith(0x11, /*califormed=*/true));
    shared.writeBack(a + 2048, lineWith(0x22)); // an uncaliformed line
    // Under LRU, a leaves the full L2 set on the first fetch and the
    // LLC on the fifth; the LLC's other two victims are clean and
    // uncaliformed.
    Cycles latency = 0;
    SentinelLine handoff;
    for (Addr k = 1; k <= 6; ++k)
        shared.fetchLine(a + k * 4096, latency, 0, false, handoff);
    const MemSysStats s = shared.stats();
    EXPECT_EQ(s.l2.cformEvictions, 1u);
    EXPECT_EQ(s.l3.evictions, 3u);
    EXPECT_EQ(s.l3.dirtyEvictions, 1u);
    EXPECT_EQ(s.l3.cformEvictions, 1u);
    EXPECT_TRUE(shared.memory().peek(a).califormed());
}

} // namespace
} // namespace califorms
