/**
 * @file test_stats_table.cc
 * The memory-system counter table: every row name is unique, every
 * counter row addresses its own MemSysStats field, the fold applies
 * each row's Sum/Max rule, rows and blocks follow their emit gates,
 * and the flat dump emits coherence.* on exactly the machines the
 * report and `califorms run` do (core.count > 1).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "sim/machine.hh"
#include "sim/stats_dump.hh"

namespace califorms
{
namespace
{

/** A MemSysStats whose counter rows hold base, base + 1, ... in table
 *  order. */
MemSysStats
distinctStats(std::uint64_t base)
{
    MemSysStats s;
    std::uint64_t v = base;
    for (const StatRow &row : statTable())
        if (!row.derive)
            row.counter(s) = v++;
    return s;
}

TEST(StatTable, RowNamesAreUnique)
{
    std::set<std::string> names;
    for (const StatRow &row : statTable())
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
}

TEST(StatTable, EveryCounterRowAddressesItsOwnField)
{
    // Writing distinct values through the rows and reading them back
    // catches two rows aliasing one field; with the sizeof
    // static_assert that makes rows and fields a bijection.
    const MemSysStats s = distinctStats(1);
    std::uint64_t expect = 1;
    for (const StatRow &row : statTable()) {
        if (!row.derive) {
            EXPECT_EQ(row.counter(s), expect++) << row.name;
        }
    }
}

TEST(StatTable, MergeAppliesEachRowsRule)
{
    const MemSysStats a = distinctStats(1);
    const MemSysStats b = distinctStats(1000);
    MemSysStats folded = a;
    mergeStats(folded, b);
    std::set<std::string> max_rows;
    for (const StatRow &row : statTable()) {
        if (row.derive)
            continue;
        if (row.merge == StatMerge::Max) {
            max_rows.insert(row.name);
            EXPECT_EQ(row.counter(folded),
                      std::max(row.counter(a), row.counter(b)))
                << row.name;
        } else {
            EXPECT_EQ(row.counter(folded),
                      row.counter(a) + row.counter(b))
                << row.name;
        }
    }
    EXPECT_EQ(max_rows, (std::set<std::string>{"wbq.peakOccupancy",
                                               "mshr.peakOccupancy"}));
    EXPECT_EQ(folded.wbPeakOccupancy,
              std::max(a.wbPeakOccupancy, b.wbPeakOccupancy));
    EXPECT_EQ(folded.mshrPeakOccupancy,
              std::max(a.mshrPeakOccupancy, b.mshrPeakOccupancy));
}

TEST(StatTable, StatValueFindsRowsByDumpName)
{
    MemSysStats s;
    s.l2.hits = 3;
    s.l2.misses = 1;
    s.dramRowConflicts = 9;
    EXPECT_EQ(statValue(s, "l2.hits"), 3.0);
    EXPECT_EQ(statValue(s, "l2.missRate"), 0.25);
    EXPECT_EQ(statValue(s, "dram.rowConflicts"), 9.0);
    EXPECT_THROW(statValue(s, "l2.nope"), std::invalid_argument);
}

TEST(StatTable, BlocksFollowTheirRowGates)
{
    const MemSysStats s = distinctStats(1);
    MachineParams p;
    EXPECT_FALSE(emittedRows(p, StatBlock::Mem).empty());
    for (const StatBlock block :
         {StatBlock::Coherence, StatBlock::Memlp, StatBlock::Repl}) {
        EXPECT_TRUE(emittedRows(p, block).empty());
        EXPECT_EQ(statBlockJson(s, p, block), "");
    }

    // The memlp block carries only the rows whose own gate passes.
    p.mem.dramBanks = 4;
    const auto memlp = emittedRows(p, StatBlock::Memlp);
    ASSERT_EQ(memlp.size(), 4u);
    for (const StatRow *row : memlp)
        EXPECT_EQ(std::string(row->name).rfind("dram.", 0), 0u)
            << row->name;
    EXPECT_EQ(statBlockJson(s, p, StatBlock::Memlp).rfind(
                  "\"memlp\": {\"dram.rowHits\": ", 0),
              0u);

    p.core.count = 2;
    EXPECT_EQ(emittedRows(p, StatBlock::Coherence).size(), 4u);
    p.mem.replPolicy = ReplPolicy::Drrip;
    EXPECT_EQ(emittedRows(p, StatBlock::Repl).size(), 4u);
}

TEST(StatTable, DumpShowsCoherenceOnlyOnMulticoreMachines)
{
    // A single-core MSI machine exchanges no probes, so it dumps like
    // any single-core machine: the same gate the reports use.
    MachineParams p;
    p.mem.coherence = CoherenceKind::Msi;
    Machine single(p);
    single.store(0x3000, 8, 1);
    EXPECT_EQ(dumpStats(single).find("coherence."), std::string::npos);

    p.core.count = 2;
    Machine dual(p);
    dual.store(0x3000, 8, 1);
    const std::string dump = dumpStats(dual);
    for (const char *key :
         {"coherence.invalidations", "coherence.dirtyRecalls",
          "coherence.convUnderInval", "coherence.convCycles"})
        EXPECT_NE(dump.find(key), std::string::npos) << key;
}

} // namespace
} // namespace califorms
