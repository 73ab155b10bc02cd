/**
 * @file stats_dump.hh
 * The memory-system counters, declared once: MemSysStats holds them,
 * and the counter table (stats_dump.cc) has one row per counter (dump
 * name, doc, accessor, merge rule, report block, emit gate) plus the
 * derived ratio rows. Aggregation (mergeStats), the gem5-style flat
 * dump (dumpStats), the report/fleet JSON blocks (statBlockJson) and
 * the `califorms run` lines (emittedRows) all walk the table.
 *
 * A row is emitted when its gate, one predicate over MachineParams,
 * passes; a block when at least one of its rows does. Only "mem" is
 * ungated, so default-config outputs stay byte-identical. A new
 * counter is a MemSysStats field plus one table row; a field without
 * a row fails to compile.
 */

#ifndef CALIFORMS_SIM_STATS_DUMP_HH
#define CALIFORMS_SIM_STATS_DUMP_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cache_array.hh"
#include "sim/params.hh"

namespace califorms
{

class Machine;

/** Aggregate statistics for the hierarchy. Plain counters only: every
 *  field is exactly one row of the counter table. */
struct MemSysStats
{
    CacheStats l1;
    CacheStats l2; //!< all zero when the L2 is disabled
    CacheStats l3; //!< all zero when the LLC is disabled
    std::uint64_t dramAccesses = 0;
    std::uint64_t spills = 0;          //!< califormed L1 evictions encoded
    std::uint64_t fills = 0;           //!< califormed L1 fills decoded
    std::uint64_t cformOps = 0;
    std::uint64_t securityFaults = 0;  //!< raised (delivered or suppressed)

    // Conversion latency actually charged at the L1 boundary (cycles).
    std::uint64_t fillConvCycles = 0;
    std::uint64_t spillConvCycles = 0;

    // Dirty write-back queue (miss-queue) behaviour; all zero when
    // wbQueueEntries == 0.
    std::uint64_t wbHits = 0;          //!< L1 misses served from the queue
    std::uint64_t wbEnqueued = 0;      //!< dirty evictions queued
    std::uint64_t wbForcedDrains = 0;  //!< pushes that found the queue full
    std::uint64_t wbPeakOccupancy = 0; //!< high-water mark of the queue

    // Coherence traffic (MSI machines with more than one core; all
    // zero otherwise). Shared-side counters, like dramAccesses.
    std::uint64_t invalidationsSent = 0; //!< invalidation probes delivered
    std::uint64_t dirtyRecalls = 0;      //!< modified lines recalled
    std::uint64_t convUnderInval = 0;    //!< recalls that forced an encode
    std::uint64_t coherenceConvCycles = 0; //!< latency charged for those

    // MSHR behaviour (all zero when mem.mshr_entries == 0); private.
    std::uint64_t mshrAllocations = 0;   //!< primary misses
    std::uint64_t mshrCoalesced = 0;     //!< secondary misses merged
    std::uint64_t mshrStallCycles = 0;   //!< waited with the table full
    std::uint64_t mshrPeakOccupancy = 0; //!< high-water mark

    // Banked DRAM row-buffer behaviour (all zero when mem.dram_banks
    // == 0). Shared-side counters, like dramAccesses.
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t dramRowConflicts = 0;
    std::uint64_t dramBankConflictCycles = 0;
};

/** The report block a row belongs to, in emission order. */
enum class StatBlock
{
    Mem,       //!< "mem": always emitted
    Coherence, //!< "coherence"
    Memlp,     //!< "memlp": MSHR and banked-DRAM counters
    Repl,      //!< "repl": replacement-policy laboratory
};

inline constexpr StatBlock kStatBlocks[] = {
    StatBlock::Mem, StatBlock::Coherence, StatBlock::Memlp,
    StatBlock::Repl};

/** When a row is emitted: each gate is one MachineParams predicate. */
enum class StatGate
{
    Always,
    MultiCore,  //!< core.count > 1
    Mshr,       //!< mem.mshr_entries > 0
    DramBanks,  //!< mem.dram_banks > 0
    ReplPolicy, //!< some level runs a non-LRU policy (replPolicyActive)
};

/** How two sides' values of a counter combine. */
enum class StatMerge
{
    Sum,
    Max, //!< high-water marks: the fullest any one structure got
};

/** One counter-table row. Counter rows name their MemSysStats field
 *  (a scalar, or a per-level CacheStats field); derived rows compute
 *  their value instead and hold no counter. */
struct StatRow
{
    const char *name; //!< dump name ("l1d.hits", "mshr.stallCycles", ...)
    const char *doc;
    StatBlock block;
    StatGate gate;
    StatMerge merge = StatMerge::Sum;
    std::uint64_t MemSysStats::*field = nullptr;
    CacheStats MemSysStats::*level = nullptr;
    std::uint64_t CacheStats::*levelField = nullptr;
    double (*derive)(const MemSysStats &) = nullptr;

    /** The counter this row names (counter rows only); const-ness
     *  follows @p stats. */
    template <typename Stats>
    auto &
    counter(Stats &stats) const
    {
        return level ? stats.*level.*levelField : stats.*field;
    }

    double
    value(const MemSysStats &stats) const
    {
        return derive ? derive(stats)
                      : static_cast<double>(counter(stats));
    }

    /** Whether a machine configured by @p params emits this row. */
    bool emitted(const MachineParams &params) const;
};

/** The counter table, grouped by block in emission order. */
std::span<const StatRow> statTable();

/** Fold @p add into @p into through every counter row's merge rule. */
void mergeStats(MemSysStats &into, const MemSysStats &add);

/** The value of the row named @p name; throws std::invalid_argument
 *  on an unknown name. */
double statValue(const MemSysStats &stats, std::string_view name);

/** The rows of @p block a machine configured by @p params emits, in
 *  table order (empty when the block is off). */
std::vector<const StatRow *> emittedRows(const MachineParams &params,
                                         StatBlock block);

/** @p block as a JSON object member (`"memlp": {"mshr.allocations":
 *  4, ...}`), or the empty string when the block is off. */
std::string statBlockJson(const MemSysStats &stats,
                          const MachineParams &params, StatBlock block);

/** Render all machine statistics in a flat, diffable format. */
std::string dumpStats(const Machine &machine);

} // namespace califorms

#endif // CALIFORMS_SIM_STATS_DUMP_HH
