/**
 * @file stats_dump.hh
 * The per-run values, declared once. A RunStats snapshot of a machine
 * or one core (snapshot()) and, for a benchmark run, its heap and
 * attack rollups are read through the counter table (stats_dump.cc):
 * one row per value (dump name, doc, accessor, merge rule, report
 * block, emit gate, per-core key) plus the derived rows. Every per-run
 * output walks it: mergeStats, the flat dump (dumpStats), the campaign
 * and fleet JSON run records (runJson), the `califorms run` and
 * `trace run` lines (statLines), and the CSV and bench_anchor columns.
 *
 * A row is emitted when its gate passes (a MachineParams predicate, or
 * whether the run had an allocator or attack trials). Only the core,
 * "mem" and "exceptions" rows are ungated, so default-config outputs
 * stay byte-identical. A new value is a field plus one table row; a
 * field without a row fails to compile.
 */

#ifndef CALIFORMS_SIM_STATS_DUMP_HH
#define CALIFORMS_SIM_STATS_DUMP_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "security/scenario_params.hh"
#include "sim/cache_array.hh"
#include "sim/params.hh"

namespace califorms
{

class Machine;
struct HeapStats;

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

/** One machine snapshot: the values of the whole machine or one core
 *  (whose cycles are its own critical path, mem its private side, and
 *  exceptions 0: they are machine-wide). Every field is one row. */
struct RunStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    MemSysStats mem{};
    std::uint64_t exceptionsDelivered = 0;
    std::uint64_t exceptionsSuppressed = 0;
};

/** Snapshot @p machine, or only core @p core when one is given. */
RunStats snapshot(const Machine &machine,
                  std::optional<unsigned> core = std::nullopt);

/** Each core's snapshot; empty on a single-core machine. */
std::vector<RunStats> coreSnapshots(const Machine &machine);

/** What the rows of one run read. A null rollup reads 0 and closes its
 *  rows' gate. */
struct RunRecord
{
    const RunStats &stats;
    std::span<const RunStats> cores = {};
    const HeapStats *heap = nullptr;            //!< null: no allocator
    const SecurityRunStats *security = nullptr; //!< null: no attacker
};

/** The report block a row belongs to, in emission order. */
enum class StatBlock
{
    Core,       //!< cycles/instructions/ipc: record members, not a block
    Mem,        //!< "mem"
    Coherence,  //!< "coherence"
    Cores,      //!< "cores": one entry per core of the per-core rows
    Memlp,      //!< "memlp": MSHR and banked-DRAM counters
    Repl,       //!< "repl": replacement-policy laboratory
    Security,   //!< "security": the attack-scenario rollup
    Heap,       //!< "heap": the allocator rollup
    Exceptions, //!< "exceptions"
};

/** When a row is emitted. */
enum class StatGate
{
    Always,
    MultiCore,  //!< core.count > 1
    Mshr,       //!< mem.mshr_entries > 0
    DramBanks,  //!< mem.dram_banks > 0
    ReplPolicy, //!< some level runs a non-LRU policy (replPolicyActive)
    Heap,       //!< the run had an allocator (a benchmark run)
    Attack,     //!< the run had attack trials
};

/** How two sides' values of a counter combine. */
enum class StatMerge
{
    Sum,
    Max, //!< high-water marks: the fullest any one structure got
};

/** One counter-table row: exactly one accessor names its value or
 *  derives it. */
struct StatRow
{
    const char *name; //!< dump name ("l1d.hits", "core.ipc", ...)
    const char *doc;
    StatBlock block;
    StatGate gate;
    StatMerge merge = StatMerge::Sum;
    /** This row's key in each "cores" entry; null: not per core. */
    const char *coreKey = nullptr;
    std::uint64_t MemSysStats::*field = nullptr;
    CacheStats MemSysStats::*level = nullptr;
    std::uint64_t CacheStats::*levelField = nullptr;
    std::uint64_t RunStats::*run = nullptr;
    std::uint64_t HeapStats::*heap = nullptr;
    std::uint64_t SecurityRunStats::*security = nullptr;
    std::string SecurityRunStats::*label = nullptr;
    double (*derive)(const RunRecord &) = nullptr;

    /** The MemSysStats counter a field or level row names. */
    template <typename Stats>
    auto &
    counter(Stats &stats) const
    {
        return level ? stats.*level.*levelField : stats.*field;
    }

    double value(const RunRecord &record) const; //!< a label reads 0
    /** The label, or the value as the shortest exact number. */
    std::string text(const RunRecord &record) const;
    /** The JSON key: the name, or in the core, security, heap and
     *  exceptions blocks the part after the dot. */
    std::string_view key() const;
};

/** The counter table, grouped by block in emission order; the tests
 *  walk it row by row. */
std::span<const StatRow> statTable();

/** The row named @p name; throws std::invalid_argument if none. */
const StatRow &statRow(std::string_view name);

/** Fold @p add into @p into through every counter row's merge rule. */
void mergeStats(MemSysStats &into, const MemSysStats &add);

/** statRow(@p name)'s value in @p record. */
double statValue(const RunRecord &record, std::string_view name);

/** The rows of @p block a run emits, in table order. */
std::vector<const StatRow *> emittedRows(const MachineParams &params,
                                         const RunRecord &record,
                                         StatBlock block);

/** The emitted rows as JSON run-record members, one block a line,
 *  from `"cycles": ...` to the last block's `}`. */
std::string runJson(const RunRecord &record, const MachineParams &params);

/** The emitted rows as `  <namespace>: <rest>=<value> ...` lines, and
 *  the cores block as one `  core<N>: <coreKey>=<value> ...` each. */
std::string statLines(const RunRecord &record, const MachineParams &params);

/** The emitted rows in a flat, diffable gem5-style dump. */
std::string dumpStats(const RunRecord &record, const MachineParams &params);

} // namespace califorms

#endif // CALIFORMS_SIM_STATS_DUMP_HH
