/**
 * @file test_mshr.cc
 * Non-blocking miss path tests: the MSHR table driven directly (one
 * entry per line, dead at its ready time, cancel, earliest ready, peak
 * and clearStats), the MSHR table through the hierarchy (coalescing,
 * hit-under-miss, structural stalls, invalidation cancel, fill
 * conversion under an outstanding entry), the banked DRAM row-buffer
 * state machine, the pinned MSHR-beats-blocking comparison, stat
 * gating, windowed clearStats semantics, and determinism /
 * jobs-invariance of the timed machine at core.count > 1.
 */

#include <gtest/gtest.h>

#include <string>

#include "exp/campaign.hh"
#include "exp/report.hh"
#include "sim/dram_timing.hh"
#include "sim/machine.hh"
#include "sim/stats_dump.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms
{
namespace
{

/** A one-level hierarchy (L1 straight to DRAM) so miss latencies are
 *  exactly l1Latency + the DRAM service time, which keeps the MSHR
 *  arithmetic below checkable to the cycle. */
MemSysParams
flatParams()
{
    MemSysParams p;
    p.levels = 1;
    p.l1Size = 1024;
    p.l1Ways = 2;
    return p;
}

/** A one-core machine: timed ops go straight to its memory side, so
 *  the issue clock advances one cycle per op. */
struct Harness
{
    Machine m;
    MemorySystem &mem;

    explicit Harness(MemSysParams p)
        : m(MachineParams{.mem = p, .core = {}}), mem(m.memorySystem())
    {}
};

const SpecBenchmark &
synthBench(const std::string &name)
{
    for (const auto &b : synthSuite())
        if (b.name == name)
            return b;
    throw std::invalid_argument("no synth bench " + name);
}

/** A small deterministic synthetic run on a timed machine. */
RunResult
runTimed(const std::string &name, unsigned mshrs, unsigned banks,
         unsigned cores = 1)
{
    RunConfig config;
    config.machine.core.count = cores;
    if (cores > 1)
        config.machine.mem.coherence = CoherenceKind::Msi;
    config.machine.mem.mshrEntries = mshrs;
    config.machine.mem.dramBanks = banks;
    config.scale = 1.0;
    config.synth.ops = 4000;
    config.synth.footprintKb = 4096; // past the LLC: real DRAM traffic
    return runBenchmark(synthBench(name), config);
}

// ---------------------------------------------------------------------
// MSHR coalescing: a secondary access to a line whose fill is still in
// flight pays only the remaining fill time, one cycle less per issue
// cycle that has passed.
// ---------------------------------------------------------------------

TEST(Mshr, SecondaryAccessPaysTheFillRemainder)
{
    MemSysParams p = flatParams();
    p.mshrEntries = 4;
    Harness h(p);

    const Cycles first = h.mem.load(0x1000, 8).latency;
    ASSERT_GT(first, p.l1Latency);
    // Each subsequent issue cycle shaves one cycle off the remainder.
    EXPECT_EQ(h.mem.load(0x1000, 8).latency, first - 1);
    EXPECT_EQ(h.mem.load(0x1000, 8).latency, first - 2);

    const MemSysStats s = h.m.memStats();
    EXPECT_EQ(s.mshrAllocations, 1u);
    EXPECT_EQ(s.mshrCoalesced, 2u);
    EXPECT_EQ(s.mshrStallCycles, 0u);
    EXPECT_EQ(s.l1.misses, 1u);
    EXPECT_EQ(s.l1.hits, 2u);
}

// ---------------------------------------------------------------------
// Hit-under-miss: once a fill has settled, hits to that line run at
// the plain L1 latency even while another line's miss is outstanding.
// ---------------------------------------------------------------------

TEST(Mshr, HitUnderMissRunsAtL1Latency)
{
    MemSysParams p = flatParams();
    p.mshrEntries = 4;
    p.dramLatency = 10; // short fill: the entry dies after few issues
    Harness h(p);

    // Fill A and issue hits until its entry's remainder reaches zero.
    h.mem.load(0x1000, 8);
    int guard = 0;
    while (h.mem.load(0x1000, 8).latency != p.l1Latency)
        ASSERT_LT(++guard, 64) << "fill remainder never drained";

    // Miss B; while its fill is outstanding, A still hits in 4 cycles.
    const Cycles miss = h.mem.load(0x2000, 8).latency;
    EXPECT_EQ(miss, p.l1Latency + p.dramLatency);
    EXPECT_EQ(h.mem.load(0x1000, 8).latency, p.l1Latency);
    EXPECT_EQ(h.m.memStats().mshrStallCycles, 0u);
}

// ---------------------------------------------------------------------
// Structural stalls: a miss with every MSHR live waits for the
// earliest outstanding fill and books the wait as mshr.stallCycles.
// ---------------------------------------------------------------------

TEST(Mshr, FullTableStallsUntilTheEarliestFillRetires)
{
    MemSysParams p = flatParams();
    p.mshrEntries = 1;
    Harness h(p);

    const Cycles first = h.mem.load(0x1000, 8).latency;
    const Cycles below = first - p.l1Latency; // the fill time
    ASSERT_GT(below, 1u);

    // B issues one cycle after A allocated, so it waits below - 1
    // cycles for A's entry, then pays its own full fill.
    const Cycles second = h.mem.load(0x2000, 8).latency;
    EXPECT_EQ(second, first + below - 1);

    const MemSysStats s = h.m.memStats();
    EXPECT_EQ(s.mshrStallCycles, below - 1);
    EXPECT_EQ(s.mshrAllocations, 2u);
    EXPECT_EQ(s.mshrPeakOccupancy, 1u);
}

TEST(Mshr, DeeperTableAbsorbsTheSameBurstWithoutStalling)
{
    MemSysParams p = flatParams();
    p.mshrEntries = 8;
    Harness h(p);
    for (int i = 0; i < 8; ++i)
        h.mem.load(0x1000 + 0x1000 * i, 8);
    const MemSysStats s = h.m.memStats();
    EXPECT_EQ(s.mshrStallCycles, 0u);
    EXPECT_EQ(s.mshrAllocations, 8u);
    EXPECT_GE(s.mshrPeakOccupancy, 7u);
}

// ---------------------------------------------------------------------
// Califorms wrinkle: a sentinel fill conversion extends the fill the
// MSHR entry stays live for, and secondary accesses pay it too.
// ---------------------------------------------------------------------

TEST(Mshr, FillConversionExtendsTheOutstandingEntry)
{
    MemSysParams p = flatParams();
    p.mshrEntries = 4;
    p.fillConvLatency = 5;

    // Control: the same reload without security bytes on the line.
    Harness plain(p);
    plain.mem.store(0x1000, 8, 0x1122334455667788ull);
    plain.m.flushAll();
    const Cycles plain_first = plain.mem.load(0x1000, 8).latency;

    Harness conv(p);
    conv.mem.store(0x1000, 8, 0x1122334455667788ull);
    ASSERT_FALSE(conv.mem.cform(makeSetOp(0x1000, 0xff00ull)).faulted);
    conv.m.flushAll(); // spills to DRAM as a califormed sentinel line
    const std::uint64_t pre = conv.m.memStats().mshrCoalesced;
    const Cycles conv_first = conv.mem.load(0x1000, 8).latency;

    // The fill conversion sits on the refill path...
    EXPECT_EQ(conv_first, plain_first + p.fillConvLatency);
    // ...and the coalesced secondary miss sees the extended remainder.
    EXPECT_EQ(conv.mem.load(0x1000, 8).latency, conv_first - 1);
    EXPECT_EQ(conv.m.memStats().fills, 1u);
    EXPECT_EQ(conv.m.memStats().mshrCoalesced, pre + 1);
}

// ---------------------------------------------------------------------
// Coherence wrinkle: an invalidation cancels the victim's outstanding
// entry, so the freed slot does not phantom-stall later misses.
// ---------------------------------------------------------------------

TEST(Mshr, InvalidationCancelsTheOutstandingEntry)
{
    MachineParams p;
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    p.mem.mshrEntries = 1;
    Machine m(p);

    m.loadOn(0, 0x10000, 8);          // core 0: entry live for a while
    m.storeOn(1, 0x10000, 8, 7);      // invalidate -> cancel the entry
    m.loadOn(0, 0x20000, 8);          // would stall on a stale entry
    EXPECT_EQ(m.memStats().mshrStallCycles, 0u);
    EXPECT_EQ(m.memStats().invalidationsSent, 1u);
}

// ---------------------------------------------------------------------
// The MSHR table, driven directly: one entry per line, entries dead at
// their completion time, and the peak counting live entries only.
// ---------------------------------------------------------------------

TEST(MshrTableDirect, ReallocatingALineOverwritesIt)
{
    MshrTable t(8);
    t.allocate(0x40, 100, 0);
    t.allocate(0x40, 150, 10);
    EXPECT_EQ(t.occupancy(10), 1u);
    EXPECT_EQ(t.remainder(0x40, 10), 140u);
    EXPECT_EQ(t.earliestReady(), 150u);
    EXPECT_EQ(t.stats().allocations, 2u);
    EXPECT_EQ(t.stats().peakOccupancy, 1u);
}

TEST(MshrTableDirect, AnEntryIsDeadAtItsReadyTime)
{
    MshrTable t(8);
    t.allocate(0x40, 100, 0);
    EXPECT_EQ(t.remainder(0x40, 99), 1u);
    EXPECT_EQ(t.remainder(0x40, 100), 0u);
    EXPECT_EQ(t.occupancy(99), 1u);
    EXPECT_EQ(t.occupancy(100), 0u);
    EXPECT_EQ(t.remainder(0x40, 50), 0u); // pruned, gone for good
}

TEST(MshrTableDirect, CancelRemovesOnlyItsLine)
{
    MshrTable t(8);
    t.allocate(0x40, 100, 0);
    t.allocate(0x80, 120, 0);
    t.allocate(0xc0, 90, 0);
    t.cancel(0x80);
    t.cancel(0x1000); // absent: no effect
    EXPECT_EQ(t.occupancy(0), 2u);
    EXPECT_EQ(t.remainder(0x80, 0), 0u);
    EXPECT_EQ(t.remainder(0x40, 0), 100u);
    EXPECT_EQ(t.remainder(0xc0, 0), 90u);
}

TEST(MshrTableDirect, EarliestReadyIsTheMinimum)
{
    MshrTable t(8);
    t.allocate(0x40, 300, 0);
    t.allocate(0x80, 120, 0);
    t.allocate(0xc0, 200, 0);
    t.allocate(0x100, 120, 0); // ties the minimum
    EXPECT_EQ(t.earliestReady(), 120u);
    t.cancel(0x80);
    EXPECT_EQ(t.earliestReady(), 120u);
    t.cancel(0x100);
    EXPECT_EQ(t.earliestReady(), 200u);
}

TEST(MshrTableDirect, PeakCountsLiveEntriesAfterThePrune)
{
    MshrTable t(8);
    t.allocate(0x40, 10, 0);
    t.allocate(0x80, 20, 0);
    EXPECT_EQ(t.stats().peakOccupancy, 2u);
    // At time 15 the first entry is dead, so the third allocation
    // brings the live count back to 2, not 3.
    t.allocate(0xc0, 30, 15);
    EXPECT_EQ(t.stats().peakOccupancy, 2u);
    t.allocate(0x100, 40, 15);
    EXPECT_EQ(t.stats().peakOccupancy, 3u);
}

TEST(MshrTableDirect, ClearStatsSeedsThePeakFromLiveEntries)
{
    MshrTable t(8);
    t.allocate(0x40, 10, 0);
    t.allocate(0x80, 20, 0);
    t.allocate(0xc0, 30, 0);
    t.noteCoalesced();
    t.noteStall(5);
    t.clearStats(15);
    EXPECT_EQ(t.stats().allocations, 0u);
    EXPECT_EQ(t.stats().coalesced, 0u);
    EXPECT_EQ(t.stats().stallCycles, 0u);
    EXPECT_EQ(t.stats().peakOccupancy, 2u);
}

// ---------------------------------------------------------------------
// The DRAM row-buffer state machine, driven directly.
// ---------------------------------------------------------------------

TEST(DramTiming, RowBufferStateMachine)
{
    MemSysParams p;
    p.dramBanks = 2;
    p.dramRowBytes = 8 * 1024;
    p.dramRowHitLatency = 10;
    p.dramRowMissLatency = 20;
    p.dramRowConflictLatency = 30;
    DramTiming d(p);
    ASSERT_TRUE(d.enabled());

    // First touch of bank 0: no open row -> row miss.
    EXPECT_EQ(d.access(0x0, 0).service, 20u);
    // Another line in the same 8KB row, bank idle -> row hit.
    EXPECT_EQ(d.access(0x40, 100).service, 10u);
    // Global row 1 interleaves onto bank 1 -> its own row miss.
    EXPECT_EQ(d.access(0x2000, 100).service, 20u);
    // Global row 2 is bank 0 again but a different row -> conflict.
    EXPECT_EQ(d.access(0x4000, 200).service, 30u);
    // Back-to-back on the busy bank: queue behind the conflict
    // (busy until 230), then hit the now-open row.
    const DramTiming::ServiceTime t = d.access(0x4040, 205);
    EXPECT_EQ(t.queueWait, 230u - 205u);
    EXPECT_EQ(t.service, 10u);

    const DramTimingStats s = d.stats();
    EXPECT_EQ(s.rowMisses, 2u);
    EXPECT_EQ(s.rowHits, 2u);
    EXPECT_EQ(s.rowConflicts, 1u);
    EXPECT_EQ(s.bankConflictCycles, 230u - 205u);
}

TEST(DramTiming, OccupyCountsRowStatsButNoDemandWaits)
{
    MemSysParams p;
    p.dramBanks = 2;
    p.dramRowBytes = 8 * 1024;
    DramTiming d(p);
    d.occupy(0x0);   // write-back: opens the row off the demand path
    d.occupy(0x40);
    const DramTimingStats s = d.stats();
    EXPECT_EQ(s.rowMisses + s.rowHits + s.rowConflicts, 2u);
    EXPECT_EQ(s.bankConflictCycles, 0u);
}

// ---------------------------------------------------------------------
// The pinned comparison: with banked DRAM timing on, the MSHR machine
// completes a burst of independent misses in fewer cycles than the
// blocking machine, which serializes them.
// ---------------------------------------------------------------------

TEST(MshrVsBlocking, IndependentMissesOverlapOnlyWithMshrs)
{
    MemSysParams blocking = flatParams();
    blocking.dramBanks = 8;
    MemSysParams mshr = blocking;
    mshr.mshrEntries = 16;

    Harness hb(blocking), hm(mshr);
    Cycles blocking_total = 0, mshr_total = 0;
    // Eight lines, 8KB apart: one per DRAM bank, fully independent.
    for (int i = 0; i < 8; ++i) {
        blocking_total += hb.mem.load(0x2000 * i, 8).latency;
        mshr_total += hm.mem.load(0x2000 * i, 8).latency;
    }
    EXPECT_LT(mshr_total, blocking_total);
    // Same functional traffic either way.
    EXPECT_EQ(hb.m.memStats().l1.misses, hm.m.memStats().l1.misses);
    EXPECT_EQ(hb.m.memStats().dramAccesses,
              hm.m.memStats().dramAccesses);
    EXPECT_EQ(hm.m.memStats().mshrStallCycles, 0u);
}

TEST(MshrVsBlocking, TimedMachineRunsFasterWithMshrs)
{
    const RunResult blocking = runTimed("zipf", 0, 8);
    const RunResult mshr = runTimed("zipf", 16, 8);
    // Identical functional execution...
    EXPECT_EQ(blocking.instructions, mshr.instructions);
    EXPECT_EQ(blocking.mem.l1.misses, mshr.mem.l1.misses);
    EXPECT_EQ(blocking.mem.dramAccesses, mshr.mem.dramAccesses);
    // ...but the non-blocking miss path retires it in fewer cycles.
    EXPECT_LT(mshr.cycles, blocking.cycles);
    EXPECT_GT(mshr.mem.mshrAllocations, 0u);
}

// ---------------------------------------------------------------------
// Default gating: with mshr = 0 and banks = 0 the machine is the
// legacy untimed machine, whatever the other timing knobs say.
// ---------------------------------------------------------------------

TEST(MshrGating, DisabledTimingReproducesTheLegacyMachine)
{
    const RunResult legacy = runTimed("zipf", 0, 0);

    RunConfig config;
    config.machine.mem.mshrEntries = 0;
    config.machine.mem.dramBanks = 0;
    // Scrambled row-buffer knobs must be inert while banks = 0.
    config.machine.mem.dramRowBytes = 1024;
    config.machine.mem.dramRowHitLatency = 1;
    config.machine.mem.dramRowMissLatency = 2;
    config.machine.mem.dramRowConflictLatency = 3;
    config.scale = 1.0;
    config.synth.ops = 4000;
    config.synth.footprintKb = 4096;
    const RunResult scrambled =
        runBenchmark(synthBench("zipf"), config);

    EXPECT_EQ(legacy.cycles, scrambled.cycles);
    EXPECT_EQ(legacy.instructions, scrambled.instructions);
    EXPECT_EQ(legacy.mem.l1.misses, scrambled.mem.l1.misses);
    EXPECT_EQ(legacy.mem.dramAccesses, scrambled.mem.dramAccesses);
    EXPECT_EQ(legacy.mem.mshrAllocations, 0u);
    EXPECT_EQ(legacy.mem.dramRowHits + legacy.mem.dramRowMisses +
                  legacy.mem.dramRowConflicts,
              0u);
}

TEST(MshrGating, StatDumpOnlyShowsTimingLinesWhenConfigured)
{
    MachineParams p;
    Machine untimed(p);
    untimed.load(0x1000, 8);
    const std::string plain =
        dumpStats({snapshot(untimed)}, untimed.params());
    EXPECT_EQ(plain.find("mshr."), std::string::npos);
    EXPECT_EQ(plain.find("dram.rowHits"), std::string::npos);

    p.mem.mshrEntries = 4;
    p.mem.dramBanks = 4;
    Machine timed(p);
    timed.load(0x1000, 8);
    const std::string dump = dumpStats({snapshot(timed)}, timed.params());
    EXPECT_NE(dump.find("mshr.allocations"), std::string::npos);
    EXPECT_NE(dump.find("dram.rowHits"), std::string::npos);
}

// ---------------------------------------------------------------------
// Windowed statistics (clearStats) over the new counters.
// ---------------------------------------------------------------------

TEST(MshrClearStats, WindowCountersResetButLiveEntriesSeedThePeak)
{
    MachineParams p;
    p.mem.mshrEntries = 4;
    Machine m(p);
    m.load(0x10000, 8); // one entry, still in flight
    m.clearStats();
    const MemSysStats s = m.memStats();
    EXPECT_EQ(s.mshrAllocations, 0u);
    EXPECT_EQ(s.mshrCoalesced, 0u);
    EXPECT_EQ(s.mshrStallCycles, 0u);
    // The high-water mark restarts at the live occupancy, exactly like
    // wbq.peakOccupancy restarts at the occupied queue.
    EXPECT_EQ(s.mshrPeakOccupancy, 1u);
    EXPECT_EQ(s.dramAccesses, 0u);
}

TEST(DramClearStats, BankStateSurvivesTheWindowButStatsReset)
{
    MachineParams p;
    p.mem.dramBanks = 4;
    Machine m(p);
    m.load(0x0, 8); // opens bank 0 row 0 with a row miss
    m.clearStats();
    EXPECT_EQ(m.memStats().dramRowMisses, 0u);
    EXPECT_EQ(m.memStats().dramBankConflictCycles, 0u);
    // The next miss in the same 8KB row must see the still-open row:
    // open-row state is machine state, not window state.
    m.load(0x40, 8);
    EXPECT_EQ(m.memStats().dramRowHits, 1u);
    EXPECT_EQ(m.memStats().dramRowMisses, 0u);
}

TEST(CoherenceClearStats, SharedCountersResetWithTheWindow)
{
    MachineParams p;
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    Machine m(p);
    m.loadOn(0, 0x10000, 8);
    m.loadOn(1, 0x10000, 8);
    m.storeOn(0, 0x10000, 8, 1); // S -> M upgrade: invalidation
    m.storeOn(0, 0x20000, 8, 2);
    m.loadOn(1, 0x20000, 8);     // dirty recall
    ASSERT_GE(m.memStats().invalidationsSent, 1u);
    ASSERT_GE(m.memStats().dirtyRecalls, 1u);

    m.clearStats();
    const MemSysStats s = m.memStats();
    EXPECT_EQ(s.invalidationsSent, 0u);
    EXPECT_EQ(s.dirtyRecalls, 0u);
    EXPECT_EQ(s.convUnderInval, 0u);
    EXPECT_EQ(s.coherenceConvCycles, 0u);
}

// ---------------------------------------------------------------------
// Determinism and jobs-invariance of the timed multi-core machine.
// ---------------------------------------------------------------------

TEST(MshrDeterminism, TimedMulticoreRunsAreIdentical)
{
    const RunResult a = runTimed("zipf", 8, 8, 2);
    const RunResult b = runTimed("zipf", 8, 8, 2);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.mem.mshrAllocations, b.mem.mshrAllocations);
    EXPECT_EQ(a.mem.mshrCoalesced, b.mem.mshrCoalesced);
    EXPECT_EQ(a.mem.mshrStallCycles, b.mem.mshrStallCycles);
    EXPECT_EQ(a.mem.mshrPeakOccupancy, b.mem.mshrPeakOccupancy);
    EXPECT_EQ(a.mem.dramRowHits, b.mem.dramRowHits);
    EXPECT_EQ(a.mem.dramRowConflicts, b.mem.dramRowConflicts);
    EXPECT_EQ(a.mem.dramBankConflictCycles,
              b.mem.dramBankConflictCycles);
}

TEST(MshrDeterminism, TimedSweepIsJobsInvariant)
{
    exp::CampaignSpec spec;
    spec.name = "memlp_sweep";
    spec.suite.push_back(&synthBench("zipf"));
    spec.variants = exp::CampaignSpec::crossKey(
        exp::CampaignSpec::crossKey(
            {exp::Variant{"base", {}}},
            "mem.mshr_entries", {"0", "4"}),
        "mem.dram_banks", {"0", "8"});
    spec.base.machine.core.count = 2;
    spec.base.machine.mem.coherence = CoherenceKind::Msi;
    spec.base.synth.ops = 2000;
    spec.base.synth.footprintKb = 64;
    const auto serial = exp::runCampaign(spec, 1);
    const auto parallel = exp::runCampaign(spec, 4);
    const exp::ReportTiming timing{false, 1, 0.0};
    EXPECT_EQ(exp::campaignJson(serial, timing),
              exp::campaignJson(parallel, timing));
}

} // namespace
} // namespace califorms
