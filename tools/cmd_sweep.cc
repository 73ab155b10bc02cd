/**
 * @file cmd_sweep.cc
 * `califorms sweep`: the policy harness. Expands a policy x span grid
 * over one benchmark (or the software-eval suite) into a campaign,
 * executes it on the deterministic parallel engine (--jobs), averages
 * cycles over layout seeds, and prints slowdown relative to the
 * uninstrumented baseline — the Figure 11/12 methodology, but
 * composable over any policy x span grid instead of fixed per-figure
 * configurations. The machine is configurable through the parameter
 * registry (--set key=value, --config FILE, and the legacy alias
 * flags); any registered knob becomes an extra grid axis with
 * --axis key=v1,v2,... (e.g. --axis core.mlp=4,12), and a comma list
 * for --levels is another way to write --axis mem.levels=L.
 * Every axis block carries its own uninstrumented baseline, so the
 * slowdown column always compares within a machine configuration.
 * --json/--csv record the machine-readable report (schema
 * califorms-campaign/v3; each variant embeds its resolved non-default
 * config).
 */

#include "cli.hh"

#include <cstdio>
#include <vector>

#include "exp/campaign.hh"
#include "exp/report.hh"
#include "util/table.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms::cli
{
namespace
{

constexpr const char *prog = "califorms sweep";

void
usage()
{
    std::printf(
        "usage: califorms sweep [options]\n"
        "\n"
        "options:\n"
        "  --bench B       benchmark name, 'all' for the software-eval "
        "suite, or\n"
        "                  'synthetic' for the workload-generator suite "
        "(default mcf)\n"
        "  --policies L    comma list of policies (default "
        "none,opportunistic,full,intelligent)\n"
        "  --maxspans L    comma list of max span sizes (default 3,5,7)\n"
        "  --scale S       workload iteration multiplier (default 0.25)\n"
        "  --seeds N       layout seeds per configuration (default 2)\n"
        "  --jobs N        parallel campaign workers; 0 = all cores "
        "(default 1)\n"
        "  --json FILE     write the campaign report as JSON\n"
        "  --csv FILE      write one CSV row per run\n"
        "  --extra-latency add one cycle to L2 and L3\n"
        "  --axis key=L    sweep any registered knob as a grid axis "
        "(repeatable),\n"
        "                  e.g. --axis core.mlp=4,12 --axis "
        "mem.wb_queue_entries=0,8\n"
        "  --levels L      hierarchy depth 1..3; a comma list is "
        "--axis mem.levels=L\n%s\n",
        config::cliUsage().c_str());
}

} // namespace

int
cmdSweep(int argc, char **argv)
{
    std::string bench_name = "mcf";
    std::vector<InsertionPolicy> policies = {
        InsertionPolicy::None, InsertionPolicy::Opportunistic,
        InsertionPolicy::Full, InsertionPolicy::Intelligent};
    std::vector<std::size_t> maxspans = {3, 5, 7};
    /** --axis grid dimensions, in CLI order. */
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    config::Config cfg;
    unsigned seeds = 2;
    unsigned jobs = 1;
    std::string json_path, csv_path;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string axis_text;
        if (arg == "--levels") {
            const std::string text = flagValue(argc, argv, i);
            const auto list = parseSizeList(text);
            if (!list || list->empty()) {
                std::fprintf(stderr,
                             "%s: --levels expects a comma list of "
                             "integers (e.g. 1,2,3), got '%s'\n",
                             prog, text.c_str());
                return 2;
            }
            if (list->size() == 1) {
                // A single depth is just the registry alias, recorded
                // positionally so a later --set mem.levels still wins.
                if (!setOrReport(cfg, prog, arg, "mem.levels", text))
                    return 2;
                continue;
            }
            // A comma list is the depth axis, spelt as --axis.
            axis_text = "mem.levels=";
            for (std::size_t k = 0; k < list->size(); ++k)
                axis_text += (k ? "," : "") + std::to_string((*list)[k]);
        } else if (arg == "--axis") {
            axis_text = flagValue(argc, argv, i);
        }
        if (!axis_text.empty()) {
            const std::string &text = axis_text;
            const std::size_t eq = text.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == text.size()) {
                std::fprintf(stderr,
                             "%s: --axis expects key=v1,v2,..., got "
                             "'%s'\n",
                             prog, text.c_str());
                return 2;
            }
            const std::string key = text.substr(0, eq);
            for (const auto &[seen, ignored] : axes) {
                if (seen == key) {
                    // Config map semantics would make the last value
                    // win inside every variant while the labels still
                    // claim the full cross product — reject instead.
                    std::fprintf(stderr,
                                 "%s: duplicate --axis key '%s'\n",
                                 prog, key.c_str());
                    return 2;
                }
            }
            const std::vector<std::string> values =
                splitCsv(text.substr(eq + 1));
            // Validate eagerly so a typo'd key or value fails before
            // any simulation time is spent.
            for (const std::string &value : values) {
                config::Config probe;
                if (const auto error = probe.set(key, value)) {
                    std::fprintf(stderr, "%s: --axis: %s\n", prog,
                                 error->c_str());
                    return 2;
                }
            }
            axes.emplace_back(key, values);
            continue;
        }
        switch (config::parseCliArg(cfg, arg, argc, argv, i, prog)) {
        case config::CliArg::Consumed:
            continue;
        case config::CliArg::Error:
            return 2;
        case config::CliArg::NotMine:
            break;
        }
        if (arg == "--bench") {
            bench_name = flagValue(argc, argv, i);
        } else if (arg == "--policies") {
            policies.clear();
            for (const std::string &name :
                 splitCsv(flagValue(argc, argv, i))) {
                const auto p = parsePolicy(name);
                if (!p) {
                    std::fprintf(stderr, "califorms sweep: unknown "
                                         "policy '%s'\n",
                                 name.c_str());
                    return 2;
                }
                policies.push_back(*p);
            }
        } else if (arg == "--maxspans") {
            const std::string text = flagValue(argc, argv, i);
            const auto list = parseSizeList(text);
            if (!list || list->empty()) {
                std::fprintf(stderr,
                             "%s: --maxspans expects a comma list of "
                             "integers (e.g. 3,5,7), got '%s'\n",
                             prog, text.c_str());
                return 2;
            }
            maxspans = *list;
        } else if (arg == "--scale") {
            if (!setOrReport(cfg, prog, arg, "run.scale",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--seeds") {
            const auto v =
                countOrReport(prog, arg, flagValue(argc, argv, i), 1, 4096);
            if (!v)
                return 2;
            seeds = *v;
        } else if (arg == "--jobs") {
            const auto v =
                countOrReport(prog, arg, flagValue(argc, argv, i), 0, 4096);
            if (!v)
                return 2;
            jobs = *v;
        } else if (arg == "--json") {
            json_path = flagValue(argc, argv, i);
        } else if (arg == "--csv") {
            csv_path = flagValue(argc, argv, i);
        } else if (arg == "--extra-latency") {
            cfg.set("mem.extra_l2l3_latency", "1");
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "califorms sweep: unknown argument "
                                 "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    // A single-depth --levels was folded into cfg during parsing; only
    // a comma list grows the grid, as a mem.levels axis.
    RunConfig base;
    base.scale = 0.25;
    cfg.applyTo(base);

    exp::CampaignSpec spec;
    spec.name = "sweep";
    spec.base = base;
    spec.layoutSeeds = exp::CampaignSpec::seedRange(seeds);
    if (bench_name == "all") {
        for (const auto &b : spec2006Suite())
            if (b.inSoftwareEval)
                spec.suite.push_back(&b);
    } else if (bench_name == "synthetic") {
        for (const auto &b : synthSuite())
            spec.suite.push_back(&b);
    } else {
        spec.suite.push_back(&findBenchmark(bench_name));
    }

    // Every base and axis key must reach some suite entry. The grid
    // owns policy (--policies), spans (--maxspans) and seeds
    // (--seeds), so a base set of those would be silently overwritten.
    // Likewise an axis overrides a base set of its own key.
    std::vector<std::string> axis_keys;
    for (const auto &[key, values] : axes) {
        if (cfg.isSet(key)) {
            std::fprintf(stderr,
                         "%s: %s is both set and swept; the --axis "
                         "values would override the set\n",
                         prog, key.c_str());
            return 2;
        }
        axis_keys.push_back(key);
    }
    const config::KeyScope scope =
        exp::suiteScope(spec.suite, "the sweep grid", true);
    if (scope.reportInert(cfg, prog, axis_keys))
        return 2;

    // Variant 0 is always the baseline the slowdown column divides by,
    // even when the user's --policies list omits 'none'; the row order
    // below follows the user's list.
    spec.variants = {exp::policyVariant("none", InsertionPolicy::None)};
    struct Row
    {
        std::size_t variant;
        InsertionPolicy policy;
        std::size_t span; //!< 0 = span axis not applicable
        std::vector<std::string> axisVals; //!< one per --axis, in order
    };
    std::vector<Row> rows;
    for (const InsertionPolicy policy : policies) {
        if (policy == InsertionPolicy::None) {
            rows.push_back({0, policy, 0, {}});
            continue;
        }
        // One variant per span for a span policy, one otherwise.
        const auto expanded = exp::CampaignSpec::crossPolicySpans(
            {policy}, maxspans);
        for (std::size_t k = 0; k < expanded.size(); ++k) {
            rows.push_back({spec.variants.size(), policy,
                            exp::policyUsesSpans(policy) ? maxspans[k] : 0,
                            {}});
            spec.variants.push_back(expanded[k]);
        }
    }

    // Cross with the registry axes (CLI order). Every crossing is
    // value-major blocks of the previous variant list, so a block of
    // per_block consecutive variants stays one machine configuration
    // carrying its own baseline.
    const std::size_t per_block = spec.variants.size();
    for (const auto &[key, values] : axes) {
        const std::size_t block = spec.variants.size();
        std::vector<Row> expanded;
        for (std::size_t a = 0; a < values.size(); ++a)
            for (const Row &row : rows) {
                Row r = row;
                r.variant += a * block;
                r.axisVals.push_back(values[a]);
                expanded.push_back(std::move(r));
            }
        spec.variants =
            exp::CampaignSpec::crossKey(spec.variants, key, values);
        rows = std::move(expanded);
    }

    const exp::CampaignResult result = exp::runCampaignWithReports(
        spec, jobs, json_path, csv_path);

    std::vector<std::string> headers = {"benchmark", "policy",
                                        "maxspan"};
    for (const auto &[key, values] : axes)
        headers.push_back(key);
    headers.push_back("cycles");
    headers.push_back("slowdown");
    TextTable table(headers);
    for (std::size_t b = 0; b < spec.suite.size(); ++b) {
        for (const Row &row : rows) {
            // Slowdown vs the uninstrumented baseline of the same
            // machine configuration (variant block).
            const std::size_t base_variant =
                row.variant / per_block * per_block;
            const double baseline = result.mean(b, base_variant);
            const double cycles = result.mean(b, row.variant);
            std::vector<std::string> cells = {
                spec.suite[b]->name,
                policyName(row.policy),
                row.span ? std::to_string(row.span) : "-"};
            for (const std::string &value : row.axisVals)
                cells.push_back(value);
            cells.push_back(TextTable::num(cycles, 0));
            cells.push_back(TextTable::pct(cycles / baseline - 1.0));
            table.addRow(cells);
        }
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

} // namespace califorms::cli
