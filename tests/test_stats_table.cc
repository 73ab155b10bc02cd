/**
 * @file test_stats_table.cc
 * The counter table: every row name is unique, every value row
 * addresses its own field of the struct it reads, the fold applies
 * each row's Sum/Max rule, rows and blocks follow their emit gates,
 * and every output walks the table: with every gate open each row
 * appears exactly once in the JSON run record and in the flat dump, and
 * at the default config only the ungated rows do. The dump of a run
 * with every machine gate open is pinned byte for byte; regenerate it
 * after an intentional change with:
 *
 *   CALIFORMS_REGEN_GOLDEN=1 ./test_stats_table
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/heap.hh"
#include "sim/machine.hh"
#include "sim/stats_dump.hh"
#include "sim/trace.hh"
#include "workload/synth.hh"

#ifndef CALIFORMS_GOLDEN_DIR
#error "build must define CALIFORMS_GOLDEN_DIR"
#endif

namespace califorms
{
namespace
{

/** Whether @p row names a MemSysStats counter. */
bool
isMemCounter(const StatRow &row)
{
    return row.field || row.level;
}

/** A MemSysStats whose counter rows hold base, base + 1, ... in table
 *  order. */
MemSysStats
distinctStats(std::uint64_t base)
{
    MemSysStats s;
    std::uint64_t v = base;
    for (const StatRow &row : statTable())
        if (isMemCounter(row))
            row.counter(s) = v++;
    return s;
}

/** Every struct the table reads, owned in one place. */
struct OwnedRecord
{
    RunStats stats;
    std::vector<RunStats> cores;
    HeapStats heap;
    SecurityRunStats security;

    RunRecord record() const { return {stats, cores, &heap, &security}; }
};

/** Every machine gate open: two MSI cores with MSHRs, banked DRAM and
 *  a non-LRU policy. */
MachineParams
everyGateParams()
{
    MachineParams p;
    p.core.count = 2;
    p.mem.coherence = CoherenceKind::Msi;
    p.mem.mshrEntries = 4;
    p.mem.dramBanks = 8;
    p.mem.replPolicy = ReplPolicy::Drrip;
    return p;
}

/** Replay a small attack-mix stream per core (CFORMs, conversions,
 *  coherence traffic and delivered exceptions) on @p machine. */
void
replayAttackMix(Machine &machine)
{
    SynthParams synth;
    synth.footprintKb = 256;
    synth.attackPeriod = 64;
    const auto owned =
        makeSynthStreams("attackmix", synth, 3000, machine.coreCount());
    std::vector<TraceReader *> streams;
    for (const auto &stream : owned)
        streams.push_back(stream.get());
    replayStreams(machine, streams);
}

/** The dump of @p machine's own snapshot under its own params. */
std::string
dumpOf(const Machine &machine)
{
    return dumpStats({snapshot(machine)}, machine.params());
}

/** A run of the every-gate machine that also had an allocator and
 *  attack trials, so every gate is open. */
OwnedRecord
everyGateRecord()
{
    Machine machine(everyGateParams(), ExceptionUnit::Policy::Record);
    replayAttackMix(machine);
    OwnedRecord out;
    out.stats = snapshot(machine);
    out.cores = coreSnapshots(machine);
    out.heap.allocs = 3;
    out.security.scenario = "scan";
    out.security.trials = 2;
    out.security.detections = 1;
    return out;
}

/** The member keys of @p json (each quoted token followed by ": "). */
std::vector<std::string>
keysOf(const std::string &json)
{
    static const std::regex key("\"([^\"]+)\": ");
    std::vector<std::string> out;
    for (std::sregex_iterator it(json.begin(), json.end(), key), end;
         it != end; ++it)
        out.push_back((*it)[1]);
    return out;
}

/** The member keys of each block of a JSON run record, by block name
 *  ("" for the record's own members, "cores[N]" per core entry). The
 *  renderer starts each block on a line of its own. */
std::map<std::string, std::vector<std::string>>
jsonMembers(const std::string &json)
{
    static const std::regex named("^\"([a-z]+)\": [{\\[]");
    std::map<std::string, std::vector<std::string>> out;
    for (std::size_t start = 0; start != std::string::npos;) {
        const std::size_t end = json.find(",\n     \"", start);
        const std::string block = json.substr(start, end - start);
        start = end == std::string::npos ? end : end + 7;
        std::smatch m;
        if (!std::regex_search(block, m, named)) {
            out[""] = keysOf(block);
        } else if (m[1] != "cores") {
            out[m[1]] = keysOf(m.suffix());
        } else {
            // One {"core": N, key: value, ...} entry per core.
            std::size_t open = 0;
            for (int c = 0;
                 (open = block.find('{', open)) != std::string::npos; ++c) {
                const std::size_t close = block.find('}', open);
                out["cores[" + std::to_string(c) + "]"] =
                    keysOf(block.substr(open, close - open));
                open = close;
            }
        }
    }
    return out;
}

/** How many dump lines name @p row. */
std::size_t
dumpLines(const std::string &dump, const StatRow &row)
{
    std::size_t n = 0;
    std::istringstream lines(dump);
    for (std::string line; std::getline(lines, line);)
        n += line.rfind(std::string(row.name) + " ", 0) == 0;
    return n;
}

/** The JSON member name of @p block ("" for the record's own). */
std::string
blockKey(StatBlock block)
{
    switch (block) {
    case StatBlock::Core:
        return "";
    case StatBlock::Mem:
        return "mem";
    case StatBlock::Coherence:
        return "coherence";
    case StatBlock::Cores:
        return "cores";
    case StatBlock::Memlp:
        return "memlp";
    case StatBlock::Repl:
        return "repl";
    case StatBlock::Security:
        return "security";
    case StatBlock::Heap:
        return "heap";
    case StatBlock::Exceptions:
        return "exceptions";
    }
    return "?";
}

TEST(StatTable, RowNamesAreUnique)
{
    std::set<std::string> names;
    for (const StatRow &row : statTable())
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
}

TEST(StatTable, EveryCounterRowAddressesItsOwnField)
{
    // Writing distinct values through the rows of every struct the
    // table reads and reading them back catches two rows aliasing one
    // field; with the sizeof static_asserts that makes rows and fields
    // a bijection for MemSysStats, RunStats, HeapStats and
    // SecurityRunStats alike.
    OwnedRecord owned;
    std::uint64_t v = 1;
    for (const StatRow &row : statTable()) {
        if (isMemCounter(row))
            row.counter(owned.stats.mem) = v++;
        else if (row.run)
            owned.stats.*row.run = v++;
        else if (row.heap)
            owned.heap.*row.heap = v++;
        else if (row.security)
            owned.security.*row.security = v++;
        else if (row.label)
            owned.security.*row.label = "label" + std::to_string(v++);
    }
    const RunRecord record = owned.record();
    std::uint64_t expect = 1;
    for (const StatRow &row : statTable()) {
        if (row.derive)
            continue;
        if (row.label)
            EXPECT_EQ(row.text(record), "label" + std::to_string(expect++))
                << row.name;
        else
            EXPECT_EQ(row.value(record), static_cast<double>(expect++))
                << row.name;
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
        if (!isMemCounter(row))
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
    RunStats s;
    s.cycles = 8;
    s.instructions = 6;
    s.mem.l2.hits = 3;
    s.mem.l2.misses = 1;
    s.mem.dramRowConflicts = 9;
    EXPECT_EQ(statValue({s}, "l2.hits"), 3.0);
    EXPECT_EQ(statValue({s}, "l2.missRate"), 0.25);
    EXPECT_EQ(statValue({s}, "dram.rowConflicts"), 9.0);
    EXPECT_EQ(statValue({s}, "core.ipc"), 0.75);
    EXPECT_THROW(statValue({s}, "l2.nope"), std::invalid_argument);

    // A rollup the record lacks reads 0.
    EXPECT_EQ(statValue({s}, "heap.allocs"), 0.0);
    SecurityRunStats security;
    security.trials = 4;
    security.successes = 1;
    EXPECT_EQ(statValue({s, {}, nullptr, &security},
                        "security.successProbability"),
              0.25);
}

TEST(StatTable, BlocksFollowTheirRowGates)
{
    const RunStats s{1, 1, distinctStats(1)};
    MachineParams p;
    EXPECT_FALSE(emittedRows(p, {s}, StatBlock::Mem).empty());
    for (const StatBlock block :
         {StatBlock::Coherence, StatBlock::Memlp, StatBlock::Repl,
          StatBlock::Security, StatBlock::Heap}) {
        EXPECT_TRUE(emittedRows(p, {s}, block).empty());
        EXPECT_EQ(runJson({s}, p).find("\"" + blockKey(block) + "\""),
                  std::string::npos);
    }

    // The memlp block carries only the rows whose own gate passes.
    p.mem.dramBanks = 4;
    const auto memlp = emittedRows(p, {s}, StatBlock::Memlp);
    ASSERT_EQ(memlp.size(), 4u);
    for (const StatRow *row : memlp)
        EXPECT_EQ(std::string(row->name).rfind("dram.", 0), 0u)
            << row->name;
    EXPECT_NE(runJson({s}, p).find(",\n     \"memlp\": {\"dram.rowHits\": "),
              std::string::npos);

    p.core.count = 2;
    EXPECT_EQ(emittedRows(p, {s}, StatBlock::Coherence).size(), 4u);
    p.mem.replPolicy = ReplPolicy::Drrip;
    EXPECT_EQ(emittedRows(p, {s}, StatBlock::Repl).size(), 4u);

    // The run gates: an allocator opens "heap", attack trials open
    // "security" (a record with no trials is not an attack run).
    const HeapStats heap;
    SecurityRunStats security;
    EXPECT_EQ(emittedRows(p, {s, {}, &heap}, StatBlock::Heap).size(), 6u);
    EXPECT_TRUE(
        emittedRows(p, {s, {}, nullptr, &security}, StatBlock::Security)
            .empty());
    security.trials = 1;
    EXPECT_EQ(
        emittedRows(p, {s, {}, nullptr, &security}, StatBlock::Security)
            .size(),
        9u);
}

TEST(StatTable, EveryRowAppearsOnceWithEveryGateOpen)
{
    const OwnedRecord owned = everyGateRecord();
    const RunRecord record = owned.record();
    const MachineParams params = everyGateParams();
    const auto json = jsonMembers(runJson(record, params));
    const std::string dump = dumpStats(record, params);

    std::size_t rows = 0, per_core = 0;
    for (const StatRow &row : statTable()) {
        ++rows;
        const auto &members = json.at(blockKey(row.block));
        EXPECT_EQ(std::count(members.begin(), members.end(),
                             std::string(row.key())),
                  1)
            << row.name;
        EXPECT_EQ(dumpLines(dump, row), 1u) << row.name;
        if (!row.coreKey)
            continue;
        ++per_core;
        for (std::size_t c = 0; c < owned.cores.size(); ++c) {
            const auto &entry = json.at("cores[" + std::to_string(c) + "]");
            EXPECT_EQ(std::count(entry.begin(), entry.end(), row.coreKey),
                      1)
                << row.name << " core " << c;
        }
    }
    // Nothing else: every member and every dump line is a row.
    std::size_t members = 0;
    for (const auto &[block, keys] : json)
        if (block.rfind("cores[", 0) != 0)
            members += keys.size();
    EXPECT_EQ(members, rows);
    ASSERT_EQ(owned.cores.size(), 2u);
    EXPECT_EQ(json.at("cores[1]").size(), per_core + 1); // + "core"
    EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'),
              static_cast<std::ptrdiff_t>(rows + 2));
}

TEST(StatTable, DefaultConfigEmitsOnlyUngatedRows)
{
    // A trace replay on the default machine: no allocator, no attack.
    Machine machine;
    machine.store(0x3000, 8, 1);
    const RunStats stats = snapshot(machine);
    const MachineParams params;
    const auto json = jsonMembers(runJson({stats}, params));
    const std::string dump = dumpStats({stats}, params);
    for (const StatRow &row : statTable()) {
        const bool ungated = row.gate == StatGate::Always;
        const auto block = json.find(blockKey(row.block));
        const bool in_json =
            block != json.end() &&
            std::count(block->second.begin(), block->second.end(),
                       std::string(row.key())) == 1;
        EXPECT_EQ(in_json, ungated) << row.name;
        EXPECT_EQ(dumpLines(dump, row), ungated ? 1u : 0u) << row.name;
    }
    EXPECT_EQ(json.count("cores[0]"), 0u);
    EXPECT_EQ(dump, dumpOf(machine));
}

TEST(StatTable, StatLinesGroupRowsByNamespace)
{
    const OwnedRecord owned = everyGateRecord();
    const std::string lines =
        "\n" + statLines(owned.record(), everyGateParams());
    for (const char *prefix :
         {"  core: cycles=", "  coherence: invalidations=",
          "  core0: cycles=", "  core1: cycles=", "  mshr: allocations=",
          "  repl: l1d.cformEvictions=", "  security: scenario=scan ",
          "  heap: allocs=3 ", "  exceptions: delivered="})
        EXPECT_NE(lines.find(std::string("\n") + prefix), std::string::npos)
            << prefix;
    // One value per row, plus one per per-core row and core.
    std::size_t rows = 0, per_core = 0;
    for (const StatRow &row : statTable()) {
        ++rows;
        per_core += row.coreKey != nullptr;
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(lines.begin(), lines.end(), '=')),
              rows + 2 * per_core);
}

TEST(StatTable, DumpShowsCoherenceOnlyOnMulticoreMachines)
{
    // A single-core MSI machine exchanges no probes, so it dumps like
    // any single-core machine: the same gate the reports use.
    MachineParams p;
    p.mem.coherence = CoherenceKind::Msi;
    Machine single(p);
    single.store(0x3000, 8, 1);
    EXPECT_EQ(dumpOf(single).find("coherence."), std::string::npos);

    p.core.count = 2;
    Machine dual(p);
    dual.store(0x3000, 8, 1);
    const std::string dump = dumpOf(dual);
    for (const char *key :
         {"coherence.invalidations", "coherence.dirtyRecalls",
          "coherence.convUnderInval", "coherence.convCycles"})
        EXPECT_NE(dump.find(key), std::string::npos) << key;
}

TEST(StatTableGolden, EveryGateDumpMatchesCheckedInExpectation)
{
    Machine machine(everyGateParams(), ExceptionUnit::Policy::Record);
    replayAttackMix(machine);
    const std::string dump = dumpOf(machine);
    const std::string path =
        std::string(CALIFORMS_GOLDEN_DIR) + "/dump_stats_every_gate.txt";
    if (std::getenv("CALIFORMS_REGEN_GOLDEN")) {
        std::ofstream(path, std::ios::binary) << dump;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream expected;
    expected << in.rdbuf();
    ASSERT_FALSE(expected.str().empty())
        << "missing golden file " << path
        << " (run with CALIFORMS_REGEN_GOLDEN=1 to create it)";
    EXPECT_EQ(dump, expected.str());
}

} // namespace
} // namespace califorms
