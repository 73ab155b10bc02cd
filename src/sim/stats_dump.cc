#include "sim/stats_dump.hh"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "alloc/heap.hh"
#include "sim/machine.hh"
#include "util/jsonout.hh"

namespace califorms
{

namespace
{

using M = MemSysStats;
using C = CacheStats;
using R = RunStats;
using H = HeapStats;
using S = SecurityRunStats;

/** Where a row is emitted: its report block, the gate opening it, and
 *  its key in each "cores" entry (null: not per core). */
struct Placement
{
    StatBlock block;
    StatGate gate;
    const char *coreKey = nullptr;
};

constexpr Placement kCore{StatBlock::Core, StatGate::Always};
constexpr Placement kMem{StatBlock::Mem, StatGate::Always};
constexpr Placement kCoherence{StatBlock::Coherence, StatGate::MultiCore};
constexpr Placement kMshr{StatBlock::Memlp, StatGate::Mshr};
constexpr Placement kBanks{StatBlock::Memlp, StatGate::DramBanks};
constexpr Placement kRepl{StatBlock::Repl, StatGate::ReplPolicy};
constexpr Placement kAttack{StatBlock::Security, StatGate::Attack};
constexpr Placement kHeap{StatBlock::Heap, StatGate::Heap};
constexpr Placement kExceptions{StatBlock::Exceptions, StatGate::Always};

/** A row reading @p value: a counter of one of the structs the table
 *  addresses, the scenario label, or a derive function. */
template <typename Value>
consteval StatRow
stat(const char *name, const char *doc, Value value, Placement at = kMem,
     StatMerge merge = StatMerge::Sum)
{
    StatRow r{name, doc, at.block, at.gate, merge, at.coreKey};
    if constexpr (std::is_same_v<Value, std::uint64_t M::*>)
        r.field = value;
    else if constexpr (std::is_same_v<Value, std::uint64_t R::*>)
        r.run = value;
    else if constexpr (std::is_same_v<Value, std::uint64_t H::*>)
        r.heap = value;
    else if constexpr (std::is_same_v<Value, std::uint64_t S::*>)
        r.security = value;
    else if constexpr (std::is_same_v<Value, std::string S::*>)
        r.label = value;
    else
        r.derive = value;
    return r;
}

/** A row reading one CacheStats field of one level. */
consteval StatRow
level(const char *name, const char *doc, C M::*cache,
      std::uint64_t C::*field, Placement at = kMem)
{
    StatRow r{name, doc, at.block, at.gate, StatMerge::Sum, at.coreKey};
    r.level = cache;
    r.levelField = field;
    return r;
}

/** @p at, also reported in each "cores" entry under @p key. */
consteval Placement
perCore(Placement at, const char *key)
{
    return {at.block, at.gate, key};
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

constexpr StatRow kTable[] = {
    stat("core.cycles", "simulated cycles (incl. bandwidth roofline)",
         &R::cycles, perCore(kCore, "cycles")),
    stat("core.instructions", "retired micro-ops", &R::instructions,
         perCore(kCore, "instructions")),
    stat("core.ipc", "instructions per cycle",
         [](const RunRecord &r) {
             const R &s = r.stats;
             return s.cycles ? static_cast<double>(s.instructions) /
                                   static_cast<double>(s.cycles)
                             : 0.0;
         },
         kCore),

    level("l1d.hits", "hits", &M::l1, &C::hits, perCore(kMem, "l1dHits")),
    level("l1d.misses", "misses", &M::l1, &C::misses,
          perCore(kMem, "l1dMisses")),
    stat("l1d.missRate", "miss rate",
         [](const RunRecord &r) { return r.stats.mem.l1.missRate(); }),
    level("l1d.evictions", "evictions", &M::l1, &C::evictions),
    level("l1d.dirtyEvictions", "dirty evictions", &M::l1,
          &C::dirtyEvictions),
    level("l2.hits", "hits", &M::l2, &C::hits),
    level("l2.misses", "misses", &M::l2, &C::misses),
    stat("l2.missRate", "miss rate",
         [](const RunRecord &r) { return r.stats.mem.l2.missRate(); }),
    level("l2.evictions", "evictions", &M::l2, &C::evictions),
    level("l2.dirtyEvictions", "dirty evictions", &M::l2,
          &C::dirtyEvictions),
    level("l3.hits", "hits", &M::l3, &C::hits),
    level("l3.misses", "misses", &M::l3, &C::misses),
    stat("l3.missRate", "miss rate",
         [](const RunRecord &r) { return r.stats.mem.l3.missRate(); }),
    level("l3.evictions", "evictions", &M::l3, &C::evictions),
    level("l3.dirtyEvictions", "dirty evictions", &M::l3,
          &C::dirtyEvictions),
    stat("dram.accesses", "lines moved to/from DRAM", &M::dramAccesses),
    stat("califorms.spills", "bitvector->sentinel conversions", &M::spills,
         perCore(kMem, "spills")),
    stat("califorms.fills", "sentinel->bitvector conversions", &M::fills,
         perCore(kMem, "fills")),
    stat("califorms.cformOps", "CFORM instructions executed", &M::cformOps,
         perCore(kMem, "cformOps")),
    stat("califorms.securityFaults", "accesses that touched security bytes",
         &M::securityFaults, perCore(kMem, "securityFaults")),
    stat("califorms.fillConvCycles", "latency charged for fill conversions",
         &M::fillConvCycles),
    stat("califorms.spillConvCycles",
         "latency charged for spill conversions", &M::spillConvCycles),
    stat("wbq.hits", "L1 misses served from the write-back queue",
         &M::wbHits),
    stat("wbq.enqueued", "dirty evictions queued", &M::wbEnqueued),
    stat("wbq.forcedDrains", "write-backs that found the queue full",
         &M::wbForcedDrains),
    stat("wbq.peakOccupancy", "write-back queue high-water mark",
         &M::wbPeakOccupancy, kMem, StatMerge::Max),

    stat("coherence.invalidations", "invalidation probes sent to remote L1s",
         &M::invalidationsSent, kCoherence),
    stat("coherence.dirtyRecalls", "modified lines recalled from a remote L1",
         &M::dirtyRecalls, kCoherence),
    stat("coherence.convUnderInval",
         "califormed lines encoded while surrendered", &M::convUnderInval,
         kCoherence),
    stat("coherence.convCycles",
         "latency charged for conversions under coherence",
         &M::coherenceConvCycles, kCoherence),

    stat("mshr.allocations", "primary misses that took an MSHR entry",
         &M::mshrAllocations, kMshr),
    stat("mshr.coalesced", "secondary misses merged into a live entry",
         &M::mshrCoalesced, kMshr),
    stat("mshr.stallCycles", "cycles stalled with every MSHR live",
         &M::mshrStallCycles, kMshr),
    stat("mshr.peakOccupancy", "MSHR table high-water mark (max over cores)",
         &M::mshrPeakOccupancy, kMshr, StatMerge::Max),
    stat("dram.rowHits", "DRAM accesses that hit the open row",
         &M::dramRowHits, kBanks),
    stat("dram.rowMisses", "DRAM accesses to a bank with no open row",
         &M::dramRowMisses, kBanks),
    stat("dram.rowConflicts", "DRAM accesses that closed another row",
         &M::dramRowConflicts, kBanks),
    stat("dram.bankConflictCycles", "fill cycles queued behind busy banks",
         &M::dramBankConflictCycles, kBanks),

    level("repl.l1d.cformEvictions",
          "L1 evictions whose victim carried security bytes", &M::l1,
          &C::cformEvictions, kRepl),
    level("repl.l2.cformEvictions",
          "L2 evictions whose victim carried security bytes", &M::l2,
          &C::cformEvictions, kRepl),
    level("repl.l3.cformEvictions",
          "LLC evictions whose victim carried security bytes", &M::l3,
          &C::cformEvictions, kRepl),
    stat("repl.cformVictimRate",
         "fraction of all evictions with califormed victims",
         [](const RunRecord &r) {
             const M &s = r.stats.mem;
             return ratio(s.l1.cformEvictions + s.l2.cformEvictions +
                              s.l3.cformEvictions,
                          s.l1.evictions + s.l2.evictions + s.l3.evictions);
         },
         kRepl),

    stat("security.scenario", "attack scenario replayed", &S::scenario,
         kAttack),
    stat("security.trials", "attacker/layout trials", &S::trials, kAttack),
    stat("security.successes", "trials the attacker won", &S::successes,
         kAttack),
    stat("security.successProbability", "share of trials the attacker won",
         [](const RunRecord &r) {
             const S *s = r.security;
             return s ? ratio(s->successes, s->trials) : 0.0;
         },
         kAttack),
    stat("security.detections", "trials with at least one detection",
         &S::detections, kAttack),
    stat("security.probes", "attacker probes issued", &S::probes, kAttack),
    stat("security.bytesTouched", "victim bytes the attacker touched",
         &S::bytesTouched, kAttack),
    stat("security.crashes", "attacker lives ended by an exception",
         &S::crashes, kAttack),
    stat("security.detectionLatencyCycles",
         "cycles to first detection, summed over detected trials",
         &S::detectionLatencyCycles, kAttack),

    stat("heap.allocs", "allocations", &H::allocs, kHeap),
    stat("heap.frees", "frees", &H::frees, kHeap),
    stat("heap.reuses", "allocations served from a free list", &H::reuses,
         kHeap),
    stat("heap.cformsIssued", "CFORMs the allocator issued",
         &H::cformsIssued, kHeap),
    stat("heap.bytesAllocated", "payload bytes allocated",
         &H::bytesAllocated, kHeap),
    stat("heap.peakHeapBytes", "heap arena high-water mark",
         &H::peakHeapBytes, kHeap),

    stat("exceptions.delivered", "privileged exceptions delivered",
         &R::exceptionsDelivered, kExceptions),
    stat("exceptions.suppressed", "exceptions suppressed by whitelist windows",
         &R::exceptionsSuppressed, kExceptions),
};

/** The number of rows whose @p accessor is set. */
template <typename Accessor>
consteval std::size_t
rowsSetting(Accessor StatRow::*accessor)
{
    return std::count_if(
        std::begin(kTable), std::end(kTable),
        [&](const StatRow &r) { return r.*accessor != nullptr; });
}

constexpr std::size_t kWord = sizeof(std::uint64_t);
static_assert(sizeof(MemSysStats) == (rowsSetting(&StatRow::field) +
                                      rowsSetting(&StatRow::level)) *
                                         kWord,
              "every MemSysStats counter needs exactly one table row");
static_assert(sizeof(RunStats) ==
                  sizeof(MemSysStats) + rowsSetting(&StatRow::run) * kWord,
              "every RunStats value needs exactly one table row");
static_assert(sizeof(HeapStats) == rowsSetting(&StatRow::heap) * kWord,
              "every HeapStats counter needs exactly one table row");
static_assert(sizeof(SecurityRunStats) ==
                  rowsSetting(&StatRow::security) * kWord +
                      rowsSetting(&StatRow::label) * sizeof(std::string),
              "every SecurityRunStats value needs exactly one table row");

/** How each block renders, in emission order: its JSON member (null:
 *  the run record's own members) and whether its keys drop the row's
 *  namespace. */
constexpr struct
{
    StatBlock block;
    const char *json;
    bool shortKeys;
} kBlocks[] = {{StatBlock::Core, nullptr, true},
               {StatBlock::Mem, "mem", false},
               {StatBlock::Coherence, "coherence", false},
               {StatBlock::Cores, "cores", false},
               {StatBlock::Memlp, "memlp", false},
               {StatBlock::Repl, "repl", false},
               {StatBlock::Security, "security", true},
               {StatBlock::Heap, "heap", true},
               {StatBlock::Exceptions, "exceptions", true}};

bool
gateOpen(StatGate gate, const MachineParams &params,
         const RunRecord &record)
{
    switch (gate) {
    case StatGate::Always:
        return true;
    case StatGate::MultiCore:
        return params.core.count > 1;
    case StatGate::Mshr:
        return params.mem.mshrEntries > 0;
    case StatGate::DramBanks:
        return params.mem.dramBanks > 0;
    case StatGate::ReplPolicy:
        return replPolicyActive(params.mem);
    case StatGate::Heap:
        return record.heap != nullptr;
    case StatGate::Attack:
        return record.security && record.security->trials > 0;
    }
    return false;
}

} // namespace

double
StatRow::value(const RunRecord &record) const
{
    if (derive)
        return derive(record);
    std::uint64_t v = 0; // a label, or a rollup the record lacks
    if (run)
        v = record.stats.*run;
    else if (heap && record.heap)
        v = record.heap->*heap;
    else if (security && record.security)
        v = record.security->*security;
    else if (field || level)
        v = counter(record.stats.mem);
    return static_cast<double>(v);
}

std::string
StatRow::text(const RunRecord &record) const
{
    if (label)
        return record.security ? record.security->*label : std::string();
    return jsonNumber(value(record));
}

std::string_view
StatRow::key() const
{
    const std::string_view full = name;
    return kBlocks[static_cast<int>(block)].shortKeys
               ? full.substr(full.find('.') + 1)
               : full;
}

std::span<const StatRow>
statTable()
{
    return kTable;
}

const StatRow &
statRow(std::string_view name)
{
    for (const StatRow &r : kTable)
        if (name == r.name)
            return r;
    throw std::invalid_argument("no counter row '" + std::string(name) +
                                "'");
}

void
mergeStats(MemSysStats &into, const MemSysStats &add)
{
    for (const StatRow &r : kTable) {
        if (!r.field && !r.level)
            continue;
        std::uint64_t &v = r.counter(into);
        const std::uint64_t a = r.counter(add);
        v = r.merge == StatMerge::Max ? std::max(v, a) : v + a;
    }
}

double
statValue(const RunRecord &record, std::string_view name)
{
    return statRow(name).value(record);
}

std::vector<const StatRow *>
emittedRows(const MachineParams &params, const RunRecord &record,
            StatBlock block)
{
    std::vector<const StatRow *> out;
    for (const StatRow &r : kTable)
        if (r.block == block && gateOpen(r.gate, params, record))
            out.push_back(&r);
    return out;
}

std::string
runJson(const RunRecord &record, const MachineParams &params)
{
    std::string out;
    for (const auto &[block, json, short_keys] : kBlocks) {
        std::string members;
        if (block == StatBlock::Cores) {
            if (!gateOpen(StatGate::MultiCore, params, record))
                continue;
            // One {"core": N, ...} entry a line.
            for (std::size_t c = 0; c < record.cores.size(); ++c) {
                members += c ? ",\n               " : "";
                members += "{\"core\": " + std::to_string(c);
                for (const StatRow &r : kTable)
                    if (r.coreKey)
                        members += ", " + jsonString(r.coreKey) + ": " +
                                   r.text({record.cores[c]});
                members += "}";
            }
            members = "\"cores\": [" + members + "]";
        } else {
            for (const StatRow *r : emittedRows(params, record, block))
                members += (members.empty() ? "" : ", ") +
                           jsonString(std::string(r->key())) + ": " +
                           (r->label ? jsonString(r->text(record))
                                     : r->text(record));
            if (!members.empty() && json)
                members = jsonString(json) + ": {" + members + "}";
        }
        if (!members.empty())
            out += (out.empty() ? "" : ",\n     ") + members;
    }
    return out;
}

std::string
statLines(const RunRecord &record, const MachineParams &params)
{
    std::string out;
    std::string open; // the namespace of the line being written
    const auto item = [&](const std::string &ns, std::string_view key,
                          const std::string &text) {
        if (ns != open)
            out += (open.empty() ? "  " : "\n  ") + ns + ":";
        open = ns;
        out += " " + std::string(key) + "=" + text;
    };
    for (const auto &[block, json, short_keys] : kBlocks) {
        if (block == StatBlock::Cores) {
            if (!gateOpen(StatGate::MultiCore, params, record))
                continue;
            for (std::size_t c = 0; c < record.cores.size(); ++c)
                for (const StatRow &r : kTable)
                    if (r.coreKey)
                        item("core" + std::to_string(c), r.coreKey,
                             r.text({record.cores[c]}));
            continue;
        }
        for (const StatRow *r : emittedRows(params, record, block)) {
            const std::string_view name = r->name;
            const std::size_t dot = name.find('.');
            item(std::string(name.substr(0, dot)), name.substr(dot + 1),
                 r->text(record));
        }
    }
    return open.empty() ? out : out + "\n";
}

std::string
dumpStats(const RunRecord &record, const MachineParams &params)
{
    std::ostringstream os;
    os << "---------- califorms stats ----------\n";
    for (const StatRow &r : kTable) {
        if (!gateOpen(r.gate, params, record))
            continue;
        // Counters and labels print exactly, ratios to six digits.
        os << std::left << std::setw(34) << r.name << std::setw(16);
        if (r.derive)
            os << r.value(record);
        else
            os << r.text(record);
        os << "# " << r.doc << "\n";
    }
    os << "-------------------------------------\n";
    return os.str();
}

RunStats
snapshot(const Machine &machine, std::optional<unsigned> core)
{
    if (core)
        return {machine.coreCycles(*core), machine.coreInstructions(*core),
                machine.coreMemStats(*core)};
    return {machine.cycles(), machine.instructions(), machine.memStats(),
            machine.exceptions().deliveredCount(),
            machine.exceptions().suppressedCount()};
}

std::vector<RunStats>
coreSnapshots(const Machine &machine)
{
    std::vector<RunStats> out;
    for (unsigned c = 0; machine.coreCount() > 1 && c < machine.coreCount();
         ++c)
        out.push_back(snapshot(machine, c));
    return out;
}

} // namespace califorms
