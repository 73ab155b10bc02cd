/**
 * @file test_multicore.cc
 * The multi-core coherent machine: single-core equivalence (N=1 with
 * or without MSI is bit-for-bit the historical machine), read sharing
 * and write invalidation through the directory, dirty recalls,
 * califormed-line ping-pong (conversion under invalidation), directory
 * residency (the directory drains with the private sides, including
 * after a faulting non-temporal CFORM), replay determinism, jobs-invariance of a core.count sweep, per-core vs
 * merged statistics, the round-robin interleaver (pinned op for op
 * against hand-issued per-core calls), the clearStats
 * wbPeakOccupancy regression, and degenerate trace-reader inputs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/campaign.hh"
#include "exp/report.hh"
#include "sim/machine.hh"
#include "sim/stats_dump.hh"
#include "sim/trace.hh"
#include "util/rng.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms
{
namespace
{

MachineParams
multicoreParams(unsigned cores, CoherenceKind coherence)
{
    MachineParams p;
    p.core.count = cores;
    p.mem.coherence = coherence;
    return p;
}

/** Row-for-row stat equality over the whole counter table (loud row
 *  names on mismatch). */
void
expectStatsEq(const MemSysStats &a, const MemSysStats &b)
{
    const RunStats run_a{0, 0, a};
    const RunStats run_b{0, 0, b};
    for (const StatRow &row : statTable())
        EXPECT_EQ(row.value({run_a}), row.value({run_b})) << row.name;
}

const SpecBenchmark &
synthBench(const std::string &name)
{
    for (const auto &b : synthSuite())
        if (b.name == name)
            return b;
    throw std::invalid_argument("no synth bench " + name);
}

/** A small deterministic synthetic run. */
RunResult
runSynth(const std::string &name, unsigned cores,
         CoherenceKind coherence)
{
    RunConfig config;
    config.machine = multicoreParams(cores, coherence);
    config.scale = 1.0;
    config.synth.ops = 4000;
    config.synth.footprintKb = 256;
    return runBenchmark(synthBench(name), config);
}

// ---------------------------------------------------------------------
// N=1 equivalence: a single-core machine is the historical machine, no
// matter what mem.coherence says.
// ---------------------------------------------------------------------

TEST(MulticoreEquivalence, SingleCoreMsiMatchesNone)
{
    const RunResult none =
        runSynth("zipf", 1, CoherenceKind::None);
    const RunResult msi = runSynth("zipf", 1, CoherenceKind::Msi);
    EXPECT_EQ(none.cycles, msi.cycles);
    EXPECT_EQ(none.instructions, msi.instructions);
    expectStatsEq(none.mem, msi.mem);
    EXPECT_EQ(msi.mem.invalidationsSent, 0u);
    EXPECT_EQ(msi.mem.dirtyRecalls, 0u);
    EXPECT_TRUE(none.cores.empty());
    EXPECT_TRUE(msi.cores.empty());
}

TEST(MulticoreEquivalence, DirectOpsSingleCoreMsiMatchesNone)
{
    Machine a(multicoreParams(1, CoherenceKind::None));
    Machine b(multicoreParams(1, CoherenceKind::Msi));
    for (Machine *m : {&a, &b}) {
        m->cform(makeSetOp(0x40000, 0x80));
        for (int i = 0; i < 200; ++i) {
            m->store(0x40000 + 64 * (i % 40), 8,
                     static_cast<std::uint64_t>(i));
            m->load(0x40000 + 64 * ((i * 7) % 40), 8);
        }
    }
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.instructions(), b.instructions());
    expectStatsEq(a.memStats(), b.memStats());
}

TEST(MulticoreEquivalence, MachineRejectsBadCoreCount)
{
    MachineParams p;
    p.core.count = 0;
    EXPECT_THROW(Machine m(p), std::invalid_argument);
    p.core.count = 33;
    EXPECT_THROW(Machine m(p), std::invalid_argument);
}

TEST(MulticoreEquivalence, NonSynthBenchmarkRejectsMulticore)
{
    RunConfig config;
    config.machine = multicoreParams(2, CoherenceKind::Msi);
    config.scale = 0.01;
    EXPECT_THROW(runBenchmark(findBenchmark("mcf"), config),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Sharing through the directory.
// ---------------------------------------------------------------------

TEST(MulticoreSharing, ReadSharedLineLivesInBothL1s)
{
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    const Addr line = 0x50000;
    m.pokeByte(line, 0x5a);
    m.loadOn(0, line, 1);
    m.loadOn(1, line, 1);
    BitVectorLine copy;
    EXPECT_TRUE(m.memorySystem(0).peekPrivateLine(line, copy));
    EXPECT_TRUE(m.memorySystem(1).peekPrivateLine(line, copy));
    EXPECT_EQ(m.memStats().invalidationsSent, 0u);
    EXPECT_EQ(m.loadOn(1, line, 1), 0x5au);
}

TEST(MulticoreSharing, WriteInvalidatesRemoteCopies)
{
    Machine m(multicoreParams(4, CoherenceKind::Msi));
    const Addr line = 0x50000;
    for (unsigned c = 0; c < 4; ++c)
        m.loadOn(c, line, 8);
    m.storeOn(0, line, 8, 0x1122334455667788ull);
    // The three remote copies were invalidated...
    EXPECT_EQ(m.memStats().invalidationsSent, 3u);
    BitVectorLine copy;
    EXPECT_TRUE(m.memorySystem(0).peekPrivateLine(line, copy));
    for (unsigned c = 1; c < 4; ++c)
        EXPECT_FALSE(m.memorySystem(c).peekPrivateLine(line, copy));
    // ...and the next remote read sees the new value.
    EXPECT_EQ(m.loadOn(2, line, 8), 0x1122334455667788ull);
}

TEST(MulticoreSharing, DirtyRecallHandsModifiedDataOver)
{
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    const Addr line = 0x60000;
    m.storeOn(0, line, 8, 0xdeadbeefull); // M in core 0's L1
    EXPECT_EQ(m.loadOn(1, line, 8), 0xdeadbeefull);
    EXPECT_GE(m.memStats().dirtyRecalls, 1u);
    // A read recall downgrades the owner: both cores keep a copy.
    BitVectorLine copy;
    EXPECT_TRUE(m.memorySystem(0).peekPrivateLine(line, copy));
    EXPECT_TRUE(m.memorySystem(1).peekPrivateLine(line, copy));
}

TEST(MulticoreSharing, StoreHitOnSharedLineUpgrades)
{
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    const Addr line = 0x70000;
    m.loadOn(0, line, 8);
    m.loadOn(1, line, 8); // line shared by both L1s
    m.storeOn(0, line, 8, 7); // S -> M upgrade, invalidate core 1
    EXPECT_EQ(m.memStats().invalidationsSent, 1u);
    BitVectorLine copy;
    EXPECT_FALSE(m.memorySystem(1).peekPrivateLine(line, copy));
    EXPECT_EQ(m.loadOn(1, line, 8), 7u);
}

TEST(MulticoreSharing, FunctionalViewIsCoherent)
{
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    const Addr line = 0x80000;
    m.storeOn(0, line, 8, 0x42); // dirty, private to core 0
    EXPECT_EQ(m.peekByte(line), 0x42);
    m.pokeByte(line, 0x43);
    EXPECT_EQ(m.loadOn(0, line, 1), 0x43u);
    EXPECT_EQ(m.loadOn(1, line, 1), 0x43u);
}

// ---------------------------------------------------------------------
// Conversion under invalidation: a dirty *califormed* line surrendered
// to another core pays the sentinel encode during the coherence action.
// ---------------------------------------------------------------------

TEST(MulticoreCoherence, CaliformedPingPongConverts)
{
    MachineParams p = multicoreParams(2, CoherenceKind::Msi);
    p.mem.spillConvLatency = 5;
    Machine m(p);
    const Addr line = 0x90000;
    // Byte 7 is a security byte; the cores fight over byte 0.
    m.cformOn(0, makeSetOp(line, 0x80));
    for (int i = 0; i < 10; ++i)
        m.storeOn(static_cast<unsigned>(i % 2), line, 1,
                  static_cast<std::uint64_t>(i));
    const MemSysStats s = m.memStats();
    EXPECT_GE(s.convUnderInval, 9u);
    EXPECT_EQ(s.coherenceConvCycles, s.convUnderInval * 5);
    EXPECT_GE(s.dirtyRecalls, s.convUnderInval);
    // The security byte survives every handoff.
    EXPECT_EQ(m.securityMask(line), SecurityMask{0x80});
}

TEST(MulticoreCoherence, MulticoreSynthRunHasCoherenceTraffic)
{
    const RunResult r = runSynth("ring", 4, CoherenceKind::Msi);
    EXPECT_GT(r.mem.invalidationsSent, 0u);
    EXPECT_GT(r.mem.dirtyRecalls, 0u);
    EXPECT_GT(r.mem.convUnderInval, 0u);
    ASSERT_EQ(r.cores.size(), 4u);
}

// ---------------------------------------------------------------------
// Directory residency: the directory tracks exactly the lines some
// private side holds, so it drains when every private side does.
// ---------------------------------------------------------------------

TEST(MulticoreCoherence, FaultingNonTemporalCformLeavesNoOwner)
{
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    const Addr line = 0xa0000;
    m.cformOn(0, makeSetOp(line, 0x3));
    m.flushAll();
    // Setting already-set security bytes faults; the non-temporal op
    // keeps nothing in core 1, so core 1 must not stay the owner.
    CformOp op = makeSetOp(line, 0x3);
    op.nonTemporal = true;
    const std::size_t faults = m.exceptions().deliveredCount();
    m.cformOn(1, op);
    ASSERT_EQ(m.exceptions().deliveredCount(), faults + 1);
    BitVectorLine copy;
    EXPECT_FALSE(m.memorySystem(1).peekPrivateLine(line, copy));
    EXPECT_EQ(m.sharedMemory().directoryEntries(), 0u);
    m.storeOn(0, line + 8, 8, 42);
    EXPECT_EQ(m.memStats().invalidationsSent, 0u);
    m.flushAll();
    EXPECT_EQ(m.sharedMemory().directoryEntries(), 0u);
}

TEST(MulticoreCoherence, DirectoryDrainsOnFlush)
{
    // The timed coherent machine of the `guarded` host benchmark.
    MachineParams p = multicoreParams(2, CoherenceKind::Msi);
    p.mem.mshrEntries = 8;
    p.mem.dramBanks = 8;
    for (const unsigned wbq : {0u, 16u}) {
        p.mem.wbQueueEntries = wbq;
        for (const std::string &name : synthWorkloadNames()) {
            SCOPED_TRACE(name + " wbq=" + std::to_string(wbq));
            Machine m(p);
            auto streams = makeSynthStreams(name, SynthParams{}, 4000, 2);
            std::vector<TraceReader *> raw;
            for (const auto &s : streams)
                raw.push_back(s.get());
            runTraceInterleaved(m, raw);
            EXPECT_GT(m.sharedMemory().directoryEntries(), 0u);
            m.flushAll();
            EXPECT_EQ(m.sharedMemory().directoryEntries(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(MulticoreDeterminism, IdenticalRunsAreIdentical)
{
    const RunResult a = runSynth("zipf", 4, CoherenceKind::Msi);
    const RunResult b = runSynth("zipf", 4, CoherenceKind::Msi);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    expectStatsEq(a.mem, b.mem);
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
        EXPECT_EQ(a.cores[c].instructions, b.cores[c].instructions);
        expectStatsEq(a.cores[c].mem, b.cores[c].mem);
    }
}

TEST(MulticoreDeterminism, CoreCountSweepIsJobsInvariant)
{
    exp::CampaignSpec spec;
    spec.name = "core_count_sweep";
    spec.suite.push_back(&synthBench("zipf"));
    spec.suite.push_back(&synthBench("ring"));
    spec.variants = exp::CampaignSpec::crossKey(
        exp::CampaignSpec::crossKey(
            {exp::Variant{"base", {}}},
            "core.count", {"1", "2", "4"}),
        "mem.coherence", {"none", "msi"});
    spec.base.synth.ops = 2000;
    spec.base.synth.footprintKb = 64;
    const auto serial = exp::runCampaign(spec, 1);
    const auto parallel = exp::runCampaign(spec, 4);
    const exp::ReportTiming timing{false, 1, 0.0};
    EXPECT_EQ(exp::campaignJson(serial, timing),
              exp::campaignJson(parallel, timing));
}

// ---------------------------------------------------------------------
// Per-core vs merged statistics.
// ---------------------------------------------------------------------

TEST(MulticoreStats, PerCoreStatsSumToMergedPrivateSide)
{
    const RunResult r = runSynth("stream", 4, CoherenceKind::Msi);
    ASSERT_EQ(r.cores.size(), 4u);
    MemSysStats sum;
    std::uint64_t instructions = 0;
    for (const RunStats &core : r.cores) {
        sum.l1.hits += core.mem.l1.hits;
        sum.l1.misses += core.mem.l1.misses;
        sum.spills += core.mem.spills;
        sum.fills += core.mem.fills;
        sum.cformOps += core.mem.cformOps;
        sum.securityFaults += core.mem.securityFaults;
        instructions += core.instructions;
        // The private side never carries shared-level counters.
        EXPECT_EQ(core.mem.l2.hits + core.mem.l2.misses, 0u);
        EXPECT_EQ(core.mem.dramAccesses, 0u);
    }
    EXPECT_EQ(sum.l1.hits, r.mem.l1.hits);
    EXPECT_EQ(sum.l1.misses, r.mem.l1.misses);
    EXPECT_EQ(sum.spills, r.mem.spills);
    EXPECT_EQ(sum.fills, r.mem.fills);
    EXPECT_EQ(sum.cformOps, r.mem.cformOps);
    EXPECT_EQ(sum.securityFaults, r.mem.securityFaults);
    EXPECT_EQ(instructions, r.instructions);
}

// ---------------------------------------------------------------------
// The round-robin interleaver.
// ---------------------------------------------------------------------

TEST(MulticoreInterleave, UnequalStreamsDrainCompletely)
{
    Trace t0, t1;
    for (int i = 0; i < 30; ++i)
        t0.push_back(TraceOp::load(0x10000 + 64 * i, 8));
    for (int i = 0; i < 7; ++i)
        t1.push_back(TraceOp::store(0x20000 + 64 * i, 8, i));

    std::stringstream s0, s1;
    writeTrace(s0, t0);
    writeTrace(s1, t1);
    const auto r0 = openTraceReader(s0);
    const auto r1 = openTraceReader(s1);

    Machine m(multicoreParams(2, CoherenceKind::Msi));
    std::uint64_t replayed = 0;
    runTraceInterleaved(m, {r0.get(), r1.get()}, &replayed);
    EXPECT_EQ(replayed, 37u);
    EXPECT_EQ(m.coreInstructions(0), 30u);
    EXPECT_EQ(m.coreInstructions(1), 7u);
}

TEST(MulticoreInterleave, MatchesHandIssuedRoundRobin)
{
    // Two unequal streams over the same eight lines, so the order of
    // the cores' accesses decides the coherence traffic, the cycles
    // and the loaded values.
    Rng rng(0x1e7);
    Trace t0, t1;
    auto randomOp = [&rng] {
        const Addr addr = 0x40000 + 8 * rng.nextBelow(64);
        return rng.chance(0.5) ? TraceOp::load(addr, 8)
                               : TraceOp::store(addr, 8, rng.next());
    };
    for (int i = 0; i < 41; ++i)
        t0.push_back(randomOp());
    for (int i = 0; i < 13; ++i)
        t1.push_back(randomOp());

    std::stringstream s0, s1;
    writeTrace(s0, t0);
    writeTrace(s1, t1);
    const auto r0 = openTraceReader(s0);
    const auto r1 = openTraceReader(s1);
    Machine replayed(multicoreParams(2, CoherenceKind::Msi));
    std::uint64_t ops = 0;
    const std::uint64_t checksum =
        runTraceInterleaved(replayed, {r0.get(), r1.get()}, &ops);

    // One op per live core per round, core 0 first; core 1 drops out
    // after round 13 and core 0 runs on alone.
    Machine direct(multicoreParams(2, CoherenceKind::Msi));
    std::uint64_t direct_checksum = 0;
    auto issueOn = [&direct, &direct_checksum](unsigned core,
                                               const TraceOp &op) {
        if (op.kind == TraceOp::Kind::Load)
            direct_checksum ^= direct.loadOn(core, op.addr, op.size);
        else
            direct.storeOn(core, op.addr, op.size, op.value);
    };
    for (std::size_t i = 0; i < t0.size(); ++i) {
        issueOn(0, t0[i]);
        if (i < t1.size())
            issueOn(1, t1[i]);
    }

    EXPECT_EQ(ops, t0.size() + t1.size());
    EXPECT_EQ(checksum, direct_checksum);
    EXPECT_EQ(replayed.cycles(), direct.cycles());
    for (unsigned core = 0; core < 2; ++core)
        EXPECT_EQ(replayed.coreCycles(core), direct.coreCycles(core));
    expectStatsEq(replayed.memStats(), direct.memStats());
}

TEST(MulticoreInterleave, StreamCountMustMatchCoreCount)
{
    Trace t;
    t.push_back(TraceOp::load(0x10000, 8));
    std::stringstream ss;
    writeTrace(ss, t);
    const auto reader = openTraceReader(ss);
    Machine m(multicoreParams(2, CoherenceKind::Msi));
    EXPECT_THROW(runTraceInterleaved(m, {reader.get()}, nullptr),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// clearStats regression: wbPeakOccupancy must restart at the *current*
// queue occupancy, not carry the previous measurement window's peak.
// ---------------------------------------------------------------------

namespace
{

/** Dirty distinct lines; every pass beyond the first refills from the
 *  L2 (no DRAM demand service, so the queue never drains) while the
 *  dirty evictions keep arriving — the queue fills to capacity. */
void
churnStores(Machine &m, std::size_t lines, int passes = 1)
{
    for (int pass = 0; pass < passes; ++pass)
        for (std::size_t i = 0; i < lines; ++i)
            m.store(0xa0000 + 64 * i, 8, i);
}

} // namespace

TEST(MulticoreClearStats, WbPeakOccupancyRestartsPerWindow)
{
    MachineParams p;
    p.mem.wbQueueEntries = 4;

    // Heavy phase: the queue certainly hits its capacity peak.
    Machine warm(p);
    churnStores(warm, 1024, 2);
    // The high-water mark counts the transient entry that forces a
    // drain, so a saturated queue peaks at capacity + 1.
    ASSERT_GE(warm.memStats().wbPeakOccupancy, 4u);

    // New measurement window over light traffic: the peak must match a
    // fresh machine running only the light phase, not stay at 4.
    warm.flushAll();
    warm.clearStats();
    churnStores(warm, 520); // just past the 512-line L1 -> few evictions

    Machine fresh(p);
    churnStores(fresh, 520);

    EXPECT_EQ(warm.memStats().wbPeakOccupancy,
              fresh.memStats().wbPeakOccupancy);
    EXPECT_LT(warm.memStats().wbPeakOccupancy, 4u);
    EXPECT_EQ(warm.memStats().wbEnqueued,
              fresh.memStats().wbEnqueued);
}

TEST(MulticoreClearStats, OccupiedQueueSeedsTheNewPeak)
{
    MachineParams p;
    p.mem.wbQueueEntries = 4;
    Machine m(p);
    churnStores(m, 1024, 2); // leaves the queue full
    m.clearStats();          // no flush: 4 entries still waiting
    // The lines they hold are a real high-water mark of the new window.
    EXPECT_EQ(m.memStats().wbPeakOccupancy, 4u);
}

// ---------------------------------------------------------------------
// openTraceReader degenerate inputs.
// ---------------------------------------------------------------------

TEST(TraceReaderDegenerate, EmptyFileYieldsEmptyTrace)
{
    std::stringstream ss;
    const auto reader = openTraceReader(ss);
    TraceOp op;
    EXPECT_FALSE(reader->next(op));
}

TEST(TraceReaderDegenerate, OneByteFileIsRejected)
{
    std::stringstream ss("C");
    const auto reader = openTraceReader(ss);
    TraceOp op;
    EXPECT_THROW(reader->next(op), std::runtime_error);
}

TEST(TraceReaderDegenerate, BareMagicIsRejected)
{
    // Exactly the 6-byte CALTRC magic selects the binary reader, whose
    // eager header read must then fail cleanly instead of hanging or
    // returning garbage.
    std::stringstream ss(
        std::string(kBinTraceMagic, sizeof(kBinTraceMagic)));
    EXPECT_THROW(openTraceReader(ss), std::runtime_error);
}

} // namespace
} // namespace califorms
