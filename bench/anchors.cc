/**
 * @file anchors.cc
 * The exact-counter CI anchors, one row of kAnchors each:
 *
 *   bench_anchor NAME [--quick] [--scale S] [--seeds N] [--jobs N]
 *                     [--json FILE] [--csv FILE] [--set key=value ...]
 *
 * NAME is the suffix of the anchor's committed BENCH_<NAME>.json
 * baseline, which is this program's `NAME --quick --jobs 1 --json`
 * report; ctest's bench.gate.<NAME> and CI's bench-baseline job gate
 * merges on it (tools/bench_gate.py).
 *
 * Every anchor is the same experiment shape: a suite crossed with
 * registry-key axes, run as one campaign through bench::runCampaign,
 * and printed as one table row per (benchmark, variant) cell with
 * every value averaged over the cell's layout seeds. The paper's
 * figures (fig04, fig10, fig11, fig12, appa) pivot that table: one row
 * per benchmark, one slowdown column per variant, then AVG/min/max
 * summary rows and the paper's values. A row declares only what
 * differs between anchors, so a new grid is a new row, not a new
 * harness.
 */

#include <algorithm>
#include <string_view>

#include "bench/common.hh"
#include "security/scenarios.hh"
#include "sim/stats_dump.hh"
#include "util/stats.hh"
#include "workload/synth.hh"

using namespace califorms;

namespace
{

/** The depth axis key: crossed through crossLevels (not crossKey), so
 *  reports keep their "levels" field and "@L<n>" labels. */
constexpr std::string_view kLevels = "mem.levels";

/** One crossed axis: a registry key and its values. */
struct Axis
{
    std::string key;
    std::vector<std::string> values;
};

/** One printed column: a counter-table row, headed by its run-record
 *  key, or "slowdown" (cycles relative to the first base variant at
 *  the same axis point). */
struct Column
{
    const char *name;
    int digits = 0;
    bool percent = false;
    /** Print the value as a share of this row's (at least 1). */
    const char *per = nullptr;
};

/** One CI anchor. */
struct Anchor
{
    const char *name;     //!< CLI name, the BENCH_<name>.json suffix
    const char *campaign; //!< campaign name written to the report
    const char *title;
    const char *paper;
    const char *note; //!< printed after the table
    std::vector<const SpecBenchmark *> suite;
    /** key=value sets applied to the campaign base before the user's
     *  --set/--config, so user values still win. */
    std::vector<std::string> sets = {};
    std::vector<exp::Variant> variants; //!< base variants
    std::vector<Axis> axes = {};        //!< crossed in order
    /** Empty for a paper figure: one row per benchmark and one
     *  slowdown column per variant after the first (the baseline). */
    std::vector<Column> columns = {};
    /** A figure's `paper` row: the paper's value for each slowdown
     *  column, printed under the AVG/min/max rows; empty = no row. */
    std::vector<const char *> paperRow = {};
};

std::vector<const SpecBenchmark *>
suiteOf(const std::vector<SpecBenchmark> &suite)
{
    std::vector<const SpecBenchmark *> out;
    for (const SpecBenchmark &b : suite)
        out.push_back(&b);
    return out;
}

/** The generators ignore layouts: one non-randomized variant. */
exp::Variant
layoutFree()
{
    return {"base", InsertionPolicy::None, 0, 0, std::nullopt, false};
}

const std::vector<Anchor> &
anchors()
{
    static const std::vector<Anchor> table = {
        {
            .name = "hierarchy",
            .campaign = "hierarchy_sweep",
            .title = "Hierarchy sweep - califorms across 1/2/3 cache "
                     "levels",
            .paper = "L1<->L2 conversions per Sec. 5.2; deeper levels "
                     "absorb miss cost",
            .note = "the fill/spill codec runs at the L1 boundary "
                    "wherever it is (L2 at levels>=2,\nDRAM at "
                    "levels=1); deeper hierarchies trade DRAM traffic "
                    "for extra conversions\nas califormed lines bounce "
                    "between the L1 and the sentinel levels.\n",
            .suite = {&findBenchmark("mcf"), &findBenchmark("milc")},
            // The write-back queue (the miss-queue path) is part of the
            // modelled machine; conversion latencies stay at the
            // paper's hidden-by-the-fill default of 0 cycles.
            .sets = {"mem.wb_queue_entries=8"},
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false},
                         {"full/3 CFORM", InsertionPolicy::Full, 3, 0,
                          true, true}},
            .axes = {{"mem.levels", {"1", "2", "3"}}},
            .columns = {{"core.cycles"},
                        {"slowdown", 2, true},
                        {"califorms.fills"},
                        {"califorms.spills"},
                        {"wbq.forcedDrains"},
                        {"dram.accesses"}},
        },
        {
            .name = "workloads",
            .campaign = "workload_suite",
            .title = "Synthetic workload suite - generators across "
                     "1/2/3 cache levels",
            .paper = "beyond Sec. 8.2: zipf/stream/stack/ring/attack "
                     "access-pattern coverage",
            .note = "zipf's hot set collapses into the upper levels as "
                    "depth grows; stream is\nbandwidth-bound at every "
                    "depth; stackchurn exercises the CFORM set/unset\n"
                    "hot path; attackmix is the only workload that "
                    "trips security bytes.\n",
            .suite = suiteOf(synthSuite()),
            .variants = {layoutFree()},
            .axes = {{"mem.levels", {"1", "2", "3"}}},
            .columns = {{"core.cycles"},
                        {"core.ipc", 3},
                        {"l1d.missRate", 2, true},
                        {"dram.accesses"},
                        {"califorms.cformOps"},
                        {"califorms.securityFaults"}},
        },
        {
            .name = "multicore",
            .campaign = "multicore_scaling",
            .title = "Multi-core scaling - synthetic workloads across "
                     "core counts and coherence",
            .paper = "beyond Sec. 8: private L1s + shared LLC with MSI "
                     "invalidation coherence",
            .note = "core.count=1 reproduces the single-requester "
                    "machine exactly (coherence\ncounters stay zero, "
                    "msi == none); adding cores multiplies the "
                    "combined\nfootprint, and MSI charges the "
                    "write-shared lines with invalidations,\ndirty "
                    "recalls, and sentinel conversions under "
                    "surrender.\n",
            .suite = suiteOf(synthSuite()),
            .variants = {layoutFree()},
            .axes = {{"core.count", {"1", "2", "4"}},
                     {"mem.coherence", {"none", "msi"}}},
            .columns = {{"core.cycles"},
                        {"core.ipc", 3},
                        {"dram.accesses"},
                        {"coherence.invalidations"},
                        {"coherence.dirtyRecalls"},
                        {"coherence.convUnderInval"}},
        },
        {
            .name = "memlp",
            .campaign = "memlevel_parallelism",
            .title = "Memory-level parallelism - MSHRs and banked DRAM "
                     "timing across the synthetic workloads",
            .paper = "beyond Sec. 8: non-blocking miss path vs the "
                     "blocking machine, row-buffer locality",
            .note = "mshrs=0 banks=0 reproduces the legacy untimed "
                    "machine exactly; banks>0\nwith mshrs=0 is the "
                    "blocking machine (misses serialize on the banked"
                    "\ntimeline), and raising the MSHR depth lets "
                    "independent misses overlap -\nstall cycles fall "
                    "and cycle counts drop back toward the untimed "
                    "bound.\n",
            .suite = suiteOf(synthSuite()),
            // The indexed victim-buffer path runs under the same
            // traffic.
            .sets = {"mem.wb_queue_entries=32"},
            .variants = {layoutFree()},
            .axes = {{"mem.mshr_entries", {"0", "4", "16"}},
                     {"mem.dram_banks", {"0", "8"}}},
            .columns = {{"core.cycles"},
                        {"core.ipc", 3},
                        {"mshr.stallCycles"},
                        {"mshr.coalesced"},
                        {"dram.rowHits"},
                        {"dram.rowConflicts"},
                        {"dram.bankConflictCycles"}},
        },
        {
            .name = "repl",
            .campaign = "repl_policies",
            .title = "Replacement-policy laboratory - adversarial "
                     "microworkloads across the pluggable policies",
            .paper = "beyond Sec. 8: scan/thrash resistance and "
                     "califormed-victim selection per policy",
            .note = "lru flushes its hot set on every scan episode and "
                    "misses the whole thrash\nloop; the rrip pair "
                    "(drrip, ship) ages the never-reused scan lines out "
                    "first,\nso their hot-set miss rates collapse. the "
                    "repl.*.cformEvictions counters are\nnonzero only "
                    "on mixed, whose hot objects carry security bytes - "
                    "a policy that\nvictimizes califormed lines shows "
                    "up directly in repl.cformVictimRate.\n",
            .suite = suiteOf(adversarialSuite()),
            .variants = {layoutFree()},
            .axes = {{"mem.levels", {"2", "3"}},
                     {"mem.repl_policy",
                      {"lru", "random", "dip", "drrip", "ship"}}},
            .columns = {{"core.cycles"},
                        {"core.ipc", 3},
                        {"l2.missRate", 2, true},
                        {"l3.missRate", 2, true},
                        {"repl.l1d.cformEvictions"},
                        {"repl.l2.cformEvictions"},
                        {"repl.l3.cformEvictions"},
                        {"repl.cformVictimRate", 4}},
        },
        {
            .name = "attacks",
            .campaign = "attack_scenarios",
            .title = "Red-team scenario laboratory - registered attack "
                     "PoCs vs victim insertion policies",
            .paper = "Sec. 7.3: byte-granular blacklisting turns heap "
                     "exploit primitives into detections",
            .note = "on the uncaliformed baseline the spray, overflow "
                    "and stale-pointer primitives\nland silently "
                    "(timing finds no gap to attack on this victim). "
                    "under full/\nintelligent insertion the same loops "
                    "trip a security byte within a handful\nof probes: "
                    "successProbability collapses while "
                    "detections/trials saturates,\nand "
                    "detectionLatencyCycles records how few cycles "
                    "each attacker life had.\nthe exceptions prove the "
                    "paper's point - brop still wins because these\n"
                    "respawns reuse one layout "
                    "(attack.brop_rerandomize closes it), and uaf\n"
                    "outwaits the default quarantine "
                    "(heap.quarantine_fraction=1 closes that).\n",
            .suite = suiteOf(securitySuite()),
            // Conversion latencies on so the timing side channel has
            // signal; extra trials per cell smooth the probabilities.
            .sets = {"mem.fill_conv_latency=3",
                     "mem.spill_conv_latency=5", "attack.seeds=8"},
            // The none column is a genuinely unprotected heap: no
            // CFORMs means no intra-object spans, no inter-object
            // guards, and no blacklisted quarantine.
            .variants = {exp::Variant{"none", InsertionPolicy::None, 0, 0,
                                      std::nullopt, false}
                             .withSet("heap.use_cform", "false"),
                         {"full", InsertionPolicy::Full, 7, 0,
                          std::nullopt, true},
                         {"intelligent", InsertionPolicy::Intelligent, 7,
                          0, std::nullopt, true}},
            .axes = {{"attack.scenario", attackScenarioNames()}},
            .columns = {{"security.successProbability", 2},
                        {"security.detections", 2, false,
                         "security.trials"},
                        {"security.probes"},
                        {"security.crashes"},
                        {"security.bytesTouched"},
                        {"security.detectionLatencyCycles"}},
        },
        {
            .name = "fig04",
            .campaign = "fig04_padding_sweep",
            .title = "Figure 4 - fixed padding size sweep (no CFORM)",
            .paper = "avg slowdown 3.0% @1B ... 7.6% @7B on SPEC CPU2006",
            .note = "our substrate is a simulated Westmere (Table 3) with "
                    "a DRAM bandwidth\nroofline; the paper measured a "
                    "Skylake Xeon with a 19MB LLC, so absolute\n"
                    "percentages run higher here while the monotonic "
                    "shape is preserved.\n",
            .suite = bench::fullSuite(),
            // Every field padded by a fixed 1..7 bytes: no randomness,
            // so no bar is averaged over layout seeds.
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false},
                         {"1B", InsertionPolicy::FullFixed, 0, 1, false,
                          false},
                         {"2B", InsertionPolicy::FullFixed, 0, 2, false,
                          false},
                         {"3B", InsertionPolicy::FullFixed, 0, 3, false,
                          false},
                         {"4B", InsertionPolicy::FullFixed, 0, 4, false,
                          false},
                         {"5B", InsertionPolicy::FullFixed, 0, 5, false,
                          false},
                         {"6B", InsertionPolicy::FullFixed, 0, 6, false,
                          false},
                         {"7B", InsertionPolicy::FullFixed, 0, 7, false,
                          false}},
            .paperRow = {"3.0%", "5.4%", "5.8%", "6.0%", "6.2%", "7.0%",
                         "7.6%"},
        },
        {
            .name = "fig10",
            .campaign = "fig10_extra_latency",
            .title = "Figure 10 - +1 cycle L2/L3 access latency",
            .paper = "slowdown 0.24%..1.37%, average 0.83%",
            .note = "paper: min 0.24% (hmmer), max 1.37% (xalancbmk). "
                    "`califorms config --describe`\nlists the Table 3 "
                    "machine both columns run on.\n",
            .suite = bench::fullSuite(),
            // Original binaries both times; only the cache latency
            // differs.
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false},
                         exp::Variant{"+1cyc L2/L3", InsertionPolicy::None,
                                      0, 0, false, false}
                             .withSet("mem.extra_l2l3_latency", "1")},
            .paperRow = {"0.83%"},
        },
        {
            .name = "fig11",
            .campaign = "fig11_full_policy",
            .title = "Figure 11 - opportunistic & full insertion policies",
            .paper = "avg: opportunistic+CFORM 6.2%..7.9%, full+CFORM "
                     "14.2%; libquantum >80%",
            .note = "paper: libquantum is clipped at >80%; the "
                    "opportunistic+CFORM bar averages 6.2%,\n7.9% in the "
                    "text for its CFORM-only component.\n",
            .suite = bench::softwareEvalSuite(),
            // The uninstrumented baseline, then the Figure 11 bars left
            // to right.
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false},
                         {"1-3B", InsertionPolicy::Full, 3, 0, false, true},
                         {"1-5B", InsertionPolicy::Full, 5, 0, false, true},
                         {"1-7B", InsertionPolicy::Full, 7, 0, false, true},
                         {"Opportunistic CFORM",
                          InsertionPolicy::Opportunistic, 0, 0, true,
                          false},
                         {"1-3B CFORM", InsertionPolicy::Full, 3, 0, true,
                          true},
                         {"1-5B CFORM", InsertionPolicy::Full, 5, 0, true,
                          true},
                         {"1-7B CFORM", InsertionPolicy::Full, 7, 0, true,
                          true}},
            .paperRow = {"5.5%", "5.6%", "6.5%", "7.9%", "14.0-14.2%",
                         "14.0-14.2%", "14.0-14.2%"},
        },
        {
            .name = "fig12",
            .campaign = "fig12_intelligent_policy",
            .title = "Figure 12 - intelligent insertion policy",
            .paper = "avg ~0.2% without CFORM, 1.5-2.0% with CFORM; gobmk "
                     "16.1%, perlbench 7.2%",
            .note = "paper: with CFORM no benchmark but gobmk (16.1%) and "
                    "perlbench (7.2%) exceeds 5%.\n",
            .suite = bench::softwareEvalSuite(),
            .variants = {{"base", InsertionPolicy::None, 0, 0, false,
                          false},
                         {"1-3B", InsertionPolicy::Intelligent, 3, 0,
                          false},
                         {"1-5B", InsertionPolicy::Intelligent, 5, 0,
                          false},
                         {"1-7B", InsertionPolicy::Intelligent, 7, 0,
                          false},
                         {"1-3B CFORM", InsertionPolicy::Intelligent, 3, 0,
                          true},
                         {"1-5B CFORM", InsertionPolicy::Intelligent, 5, 0,
                          true},
                         {"1-7B CFORM", InsertionPolicy::Intelligent, 7, 0,
                          true}},
            .paperRow = {"~0.2%", "~0.2%", "~0.2%", "1.5-2.0%", "1.5-2.0%",
                         "1.5-2.0%"},
        },
        {
            .name = "appa",
            .campaign = "appa_l1_variant_cost",
            .title = "Appendix A extension - L1 variant performance cost",
            .paper = "Table 7 delay overheads applied to the L1 hit path",
            .note = "every L1 hit pays the format's extra decode latency: "
                    "Table 7's +22% (1B)\nand +49% (4B) hit delay on a "
                    "4-cycle L1. the 1B variant trades a small uniform\n"
                    "slowdown for 86% less metadata SRAM than the 8B "
                    "design.\n",
            .suite = bench::softwareEvalSuite(),
            // The recommended deployment (intelligent policy with
            // CFORM) under each L1 format. Every variant sets the key,
            // so it wins over a --set mem.l1_format.
            .variants = {exp::Variant{"califorms-8B (+0 cycles)",
                                      InsertionPolicy::Intelligent}
                             .withSet("mem.l1_format", "bitvector"),
                         exp::Variant{"califorms-1B (+1 cycle)",
                                      InsertionPolicy::Intelligent}
                             .withSet("mem.l1_format", "cal1b"),
                         exp::Variant{"califorms-4B (+2 cycles)",
                                      InsertionPolicy::Intelligent}
                             .withSet("mem.l1_format", "cal4b")},
        },
    };
    return table;
}

/** @p column's header: its row's run-record key ("key/key" for a
 *  share), or "slowdown". */
std::string
headerOf(const Column &column)
{
    if (std::string_view(column.name) == "slowdown")
        return column.name;
    std::string out(statRow(column.name).key());
    return column.per ? out + "/" + std::string(statRow(column.per).key())
                      : out;
}

/** The value @p axis assigned to the expanded variant @p v. */
std::string
axisValue(const exp::Variant &v, const Axis &axis)
{
    if (axis.key == kLevels)
        return std::to_string(v.levels);
    for (const auto &[key, value] : v.sets)
        if (key == axis.key)
            return value;
    return {};
}

std::string
anchorNames()
{
    std::string out;
    for (const Anchor &a : anchors())
        out += (out.empty() ? "" : " ") + std::string(a.name);
    return out;
}

int
runAnchor(const Anchor &anchor, const bench::Options &opt)
{
    bench::banner(anchor.title, anchor.paper, opt);

    exp::CampaignSpec spec;
    spec.name = anchor.campaign;
    spec.suite = anchor.suite;
    config::Config sets;
    for (const std::string &pair : anchor.sets) {
        if (const auto error = sets.setPair(pair)) {
            std::fprintf(stderr, "anchor %s: %s\n", anchor.name,
                         error->c_str());
            return 2;
        }
    }
    sets.applyTo(spec.base);
    spec.variants = anchor.variants;
    for (const Axis &axis : anchor.axes) {
        if (axis.key != kLevels) {
            spec.variants = exp::CampaignSpec::crossKey(
                spec.variants, axis.key, axis.values);
            continue;
        }
        std::vector<unsigned> levels;
        for (const std::string &value : axis.values)
            levels.push_back(static_cast<unsigned>(std::stoul(value)));
        spec.variants = exp::CampaignSpec::crossLevels(spec.variants, levels);
    }

    const auto result = bench::runCampaign(opt, spec);

    // A figure pivots the variants into columns: one row per benchmark
    // (its baseline cell) and one slowdown column per other variant.
    // Any other anchor prints a row per cell and a column per Column.
    const bool figure = anchor.columns.empty();
    struct Printed
    {
        std::string header;
        Column column;
        std::size_t shift; //!< variant offset from the row's cell
    };
    std::vector<Printed> printed;
    for (std::size_t v = 1; figure && v < spec.variants.size(); ++v)
        printed.push_back({spec.variants[v].label, {"slowdown", 2, true}, v});
    for (const Column &column : anchor.columns)
        printed.push_back({headerOf(column), column, 0});
    const auto format = [](const Column &column, double value) {
        return column.percent ? TextTable::pct(value, column.digits)
                              : TextTable::num(value, column.digits);
    };

    // Row keys: the benchmark and the base label when there is more
    // than one of each, then every axis in declaration order.
    const bool by_bench = figure || spec.suite.size() > 1;
    const std::size_t bases = anchor.variants.size();
    std::vector<std::string> header;
    if (by_bench)
        header.push_back("benchmark");
    if (bases > 1 && !figure)
        header.push_back("variant");
    for (const Axis &axis : anchor.axes)
        header.push_back(axis.key);
    for (const Printed &p : printed)
        header.push_back(p.header);

    // A cell's value: its row's mean over the layout seeds, as a share
    // of another row's, or a slowdown over the first base variant at
    // the same axis point (crossing keeps the base variants innermost,
    // so that is v - v % bases).
    const auto cell = [&](std::size_t b, std::size_t v, const Column &c) {
        if (std::string_view(c.name) == "slowdown")
            return result.mean(b, v) / result.mean(b, v - v % bases) - 1.0;
        const double value = result.mean(b, v, c.name);
        return c.per ? value / std::max(1.0, result.mean(b, v, c.per))
                     : value;
    };
    TextTable table(header);
    std::vector<std::vector<double>> values(printed.size());
    const std::size_t row_variants = figure ? 1 : spec.variants.size();
    for (std::size_t b = 0; b < spec.suite.size(); ++b) {
        for (std::size_t row_v = 0; row_v < row_variants; ++row_v) {
            std::vector<std::string> row;
            if (by_bench)
                row.push_back(spec.suite[b]->name);
            if (bases > 1 && !figure)
                row.push_back(anchor.variants[row_v % bases].label);
            for (const Axis &axis : anchor.axes)
                row.push_back(axisValue(spec.variants[row_v], axis));
            for (std::size_t c = 0; c < printed.size(); ++c) {
                const Column &column = printed[c].column;
                const double value =
                    cell(b, row_v + printed[c].shift, column);
                values[c].push_back(value);
                row.push_back(format(column, value));
            }
            table.addRow(std::move(row));
        }
    }

    // A figure's summary rows: AVG is averageSlowdown over the
    // seed-mean cycles, then the extremes and the paper's values.
    if (figure) {
        std::vector<double> base;
        for (std::size_t b = 0; b < spec.suite.size(); ++b)
            base.push_back(result.mean(b, 0));
        std::vector<std::string> avg = {"AVG"}, lo = {"min"}, hi = {"max"};
        for (std::size_t c = 0; c < printed.size(); ++c) {
            const Printed &p = printed[c];
            std::vector<double> with;
            for (std::size_t b = 0; b < spec.suite.size(); ++b)
                with.push_back(result.mean(b, p.shift));
            const auto [least, most] =
                std::minmax_element(values[c].begin(), values[c].end());
            avg.push_back(format(p.column, averageSlowdown(base, with)));
            lo.push_back(format(p.column, *least));
            hi.push_back(format(p.column, *most));
        }
        table.addRow(std::move(avg));
        table.addRow(std::move(lo));
        table.addRow(std::move(hi));
        if (!anchor.paperRow.empty()) {
            std::vector<std::string> paper = {"paper"};
            paper.insert(paper.end(), anchor.paperRow.begin(),
                         anchor.paperRow.end());
            table.addRow(std::move(paper));
        }
    }
    std::printf("%s\n%s", table.render().c_str(), anchor.note);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string_view name = argc > 1 ? argv[1] : "";
    for (const Anchor &anchor : anchors()) {
        if (name != anchor.name)
            continue;
        // The anchor name joins the program name, so Options sees the
        // usual argv and its diagnostics name the anchor.
        std::string prog = std::string(argv[0]) + " " + anchor.name;
        std::vector<char *> args = {prog.data()};
        args.insert(args.end(), argv + 2, argv + argc);
        const bench::Options opt = bench::Options::parse(
            static_cast<int>(args.size()), args.data());
        return runAnchor(anchor, opt);
    }
    const bool help = name == "--help";
    if (!help && !name.empty())
        std::fprintf(stderr, "%s: unknown anchor '%s' (expected one of "
                             "%s)\n",
                     argv[0], argv[1], anchorNames().c_str());
    std::fprintf(help ? stdout : stderr,
                 "usage: %s NAME [options]   (NAME: %s)\n"
                 "run '%s NAME --help' for the options\n",
                 argv[0], anchorNames().c_str(), argv[0]);
    return help ? 0 : 2;
}
