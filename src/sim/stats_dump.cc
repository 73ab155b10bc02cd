#include "sim/stats_dump.hh"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/machine.hh"
#include "util/jsonout.hh"

namespace califorms
{

namespace
{

using M = MemSysStats;
using C = CacheStats;

/** Where a row is emitted: its report block and the gate opening it. */
struct Placement
{
    StatBlock block;
    StatGate gate;
};

constexpr Placement kMem{StatBlock::Mem, StatGate::Always};
constexpr Placement kCoherence{StatBlock::Coherence, StatGate::MultiCore};
constexpr Placement kMshr{StatBlock::Memlp, StatGate::Mshr};
constexpr Placement kBanks{StatBlock::Memlp, StatGate::DramBanks};
constexpr Placement kRepl{StatBlock::Repl, StatGate::ReplPolicy};

constexpr StatRow
scalar(const char *name, const char *doc, std::uint64_t M::*field,
       Placement at = kMem, StatMerge merge = StatMerge::Sum)
{
    return {name, doc, at.block, at.gate, merge, field};
}

constexpr StatRow
level(const char *name, const char *doc, C M::*cache,
      std::uint64_t C::*field, Placement at = kMem)
{
    return {name, doc, at.block, at.gate, StatMerge::Sum, nullptr, cache,
            field};
}

constexpr StatRow
derived(const char *name, const char *doc, double (*derive)(const M &),
        Placement at = kMem)
{
    return {name,    doc,     at.block, at.gate, StatMerge::Sum,
            nullptr, nullptr, nullptr,  derive};
}

double
cformVictimRate(const M &s)
{
    const double evictions = static_cast<double>(
        s.l1.evictions + s.l2.evictions + s.l3.evictions);
    const double cform = static_cast<double>(
        s.l1.cformEvictions + s.l2.cformEvictions + s.l3.cformEvictions);
    return evictions ? cform / evictions : 0.0;
}

constexpr StatRow kTable[] = {
    level("l1d.hits", "hits", &M::l1, &C::hits),
    level("l1d.misses", "misses", &M::l1, &C::misses),
    derived("l1d.missRate", "miss rate",
            [](const M &s) { return s.l1.missRate(); }),
    level("l1d.evictions", "evictions", &M::l1, &C::evictions),
    level("l1d.dirtyEvictions", "dirty evictions", &M::l1,
          &C::dirtyEvictions),
    level("l2.hits", "hits", &M::l2, &C::hits),
    level("l2.misses", "misses", &M::l2, &C::misses),
    derived("l2.missRate", "miss rate",
            [](const M &s) { return s.l2.missRate(); }),
    level("l2.evictions", "evictions", &M::l2, &C::evictions),
    level("l2.dirtyEvictions", "dirty evictions", &M::l2,
          &C::dirtyEvictions),
    level("l3.hits", "hits", &M::l3, &C::hits),
    level("l3.misses", "misses", &M::l3, &C::misses),
    derived("l3.missRate", "miss rate",
            [](const M &s) { return s.l3.missRate(); }),
    level("l3.evictions", "evictions", &M::l3, &C::evictions),
    level("l3.dirtyEvictions", "dirty evictions", &M::l3,
          &C::dirtyEvictions),
    scalar("dram.accesses", "lines moved to/from DRAM", &M::dramAccesses),
    scalar("califorms.spills", "bitvector->sentinel conversions",
           &M::spills),
    scalar("califorms.fills", "sentinel->bitvector conversions",
           &M::fills),
    scalar("califorms.cformOps", "CFORM instructions executed",
           &M::cformOps),
    scalar("califorms.securityFaults",
           "accesses that touched security bytes", &M::securityFaults),
    scalar("califorms.fillConvCycles",
           "latency charged for fill conversions", &M::fillConvCycles),
    scalar("califorms.spillConvCycles",
           "latency charged for spill conversions", &M::spillConvCycles),
    scalar("wbq.hits", "L1 misses served from the write-back queue",
           &M::wbHits),
    scalar("wbq.enqueued", "dirty evictions queued", &M::wbEnqueued),
    scalar("wbq.forcedDrains", "write-backs that found the queue full",
           &M::wbForcedDrains),
    scalar("wbq.peakOccupancy", "write-back queue high-water mark",
           &M::wbPeakOccupancy, kMem, StatMerge::Max),

    scalar("coherence.invalidations",
           "invalidation probes sent to remote L1s", &M::invalidationsSent,
           kCoherence),
    scalar("coherence.dirtyRecalls",
           "modified lines recalled from a remote L1", &M::dirtyRecalls,
           kCoherence),
    scalar("coherence.convUnderInval",
           "califormed lines encoded while surrendered",
           &M::convUnderInval, kCoherence),
    scalar("coherence.convCycles",
           "latency charged for conversions under coherence",
           &M::coherenceConvCycles, kCoherence),

    scalar("mshr.allocations", "primary misses that took an MSHR entry",
           &M::mshrAllocations, kMshr),
    scalar("mshr.coalesced", "secondary misses merged into a live entry",
           &M::mshrCoalesced, kMshr),
    scalar("mshr.stallCycles", "cycles stalled with every MSHR live",
           &M::mshrStallCycles, kMshr),
    scalar("mshr.peakOccupancy",
           "MSHR table high-water mark (max over cores)",
           &M::mshrPeakOccupancy, kMshr, StatMerge::Max),
    scalar("dram.rowHits", "DRAM accesses that hit the open row",
           &M::dramRowHits, kBanks),
    scalar("dram.rowMisses", "DRAM accesses to a bank with no open row",
           &M::dramRowMisses, kBanks),
    scalar("dram.rowConflicts", "DRAM accesses that closed another row",
           &M::dramRowConflicts, kBanks),
    scalar("dram.bankConflictCycles", "fill cycles queued behind busy banks",
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
    derived("repl.cformVictimRate",
            "fraction of all evictions with califormed victims",
            cformVictimRate, kRepl),
};

constexpr std::size_t kCounterRows =
    std::count_if(std::begin(kTable), std::end(kTable),
                  [](const StatRow &row) { return !row.derive; });
static_assert(sizeof(MemSysStats) ==
                  kCounterRows * sizeof(std::uint64_t),
              "every MemSysStats counter needs exactly one table row");

/** The JSON key of @p block. */
const char *
blockName(StatBlock block)
{
    constexpr const char *names[] = {"mem", "coherence", "memlp", "repl"};
    return names[static_cast<int>(block)];
}

void
line(std::ostringstream &os, const std::string &name, double value,
     const char *desc)
{
    os << std::left << std::setw(34) << name << std::setw(16) << value
       << "# " << desc << "\n";
}

} // namespace

bool
StatRow::emitted(const MachineParams &params) const
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
    }
    return false;
}

std::span<const StatRow>
statTable()
{
    return kTable;
}

void
mergeStats(MemSysStats &into, const MemSysStats &add)
{
    for (const StatRow &row : kTable) {
        if (row.derive)
            continue;
        std::uint64_t &v = row.counter(into);
        const std::uint64_t a = row.counter(add);
        v = row.merge == StatMerge::Max ? std::max(v, a) : v + a;
    }
}

double
statValue(const MemSysStats &stats, std::string_view name)
{
    for (const StatRow &row : kTable)
        if (name == row.name)
            return row.value(stats);
    throw std::invalid_argument("no counter row '" + std::string(name) +
                                "'");
}

std::vector<const StatRow *>
emittedRows(const MachineParams &params, StatBlock block)
{
    std::vector<const StatRow *> out;
    for (const StatRow &row : kTable)
        if (row.block == block && row.emitted(params))
            out.push_back(&row);
    return out;
}

std::string
statBlockJson(const MemSysStats &stats, const MachineParams &params,
              StatBlock block)
{
    std::string out;
    for (const StatRow *row : emittedRows(params, block)) {
        out += out.empty() ? jsonString(blockName(block)) + ": {"
                           : std::string(", ");
        out += jsonString(row->name) + ": " + jsonNumber(row->value(stats));
    }
    return out.empty() ? out : out + "}";
}

std::string
dumpStats(const Machine &machine)
{
    std::ostringstream os;
    os << "---------- califorms stats ----------\n";
    line(os, "core.cycles", static_cast<double>(machine.cycles()),
         "simulated cycles (incl. bandwidth roofline)");
    line(os, "core.instructions",
         static_cast<double>(machine.instructions()),
         "retired micro-ops");
    const double ipc =
        machine.cycles()
            ? static_cast<double>(machine.instructions()) /
                  static_cast<double>(machine.cycles())
            : 0.0;
    line(os, "core.ipc", ipc, "instructions per cycle");
    const MemSysStats stats = machine.memStats();
    for (const StatBlock block : kStatBlocks)
        for (const StatRow *row : emittedRows(machine.params(), block))
            line(os, row->name, row->value(stats), row->doc);
    line(os, "exceptions.delivered",
         static_cast<double>(machine.exceptions().deliveredCount()),
         "privileged exceptions delivered");
    line(os, "exceptions.suppressed",
         static_cast<double>(machine.exceptions().suppressedCount()),
         "exceptions suppressed by whitelist windows");
    os << "-------------------------------------\n";
    return os.str();
}

} // namespace califorms
