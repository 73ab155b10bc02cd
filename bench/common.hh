/**
 * @file common.hh
 * Shared helpers for the figure/table reproduction harnesses: CLI
 * parsing (--scale, --seeds, --jobs, --json/--csv, plus the full
 * registry surface: --set key=value, --config FILE, and the legacy
 * alias flags via config::parseCliArg), the campaign-engine
 * glue, and uniform headers so the bench outputs are easy to diff
 * against the expectations documented in EXPERIMENTS.md at the
 * repository root (harness inventory, option semantics, output format).
 *
 * Every grid-shaped harness expresses its grid as an exp::CampaignSpec
 * and executes it through runCampaign() below, which honours --jobs
 * (parallel execution with submission-order result collection, so
 * stdout is bit-identical at any job count) and records the optional
 * JSON/CSV reports.
 */

#ifndef CALIFORMS_BENCH_COMMON_HH
#define CALIFORMS_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "config/config.hh"
#include "exp/campaign.hh"
#include "exp/report.hh"
#include "sim/params.hh"
#include "util/parse.hh"
#include "util/table.hh"
#include "workload/runner.hh"

namespace califorms::bench
{

/** What a harness reads of the options below; Options::parse rejects
 *  the rest, so nothing on a harness's command line is ignored. */
enum class Reads
{
    Nothing,  //!< a fixed computation: no option applies
    Quick,    //!< only --quick, which shrinks its trial counts
    Campaign, //!< every option: a grid run through runCampaign()
};

/** Common command line options. */
struct Options
{
    double scale = 0.5;   //!< workload iteration multiplier
    unsigned seeds = 2;   //!< randomized binaries per configuration
    unsigned jobs = 1;    //!< campaign worker threads; 0 = all cores
    bool quick = false;   //!< --quick: one seed, small scale
    std::string jsonPath; //!< --json FILE: machine-readable report
    std::string csvPath;  //!< --csv FILE: one row per run
    const char *prog = ""; //!< argv[0], the diagnostics' prefix
    Reads reads = Reads::Campaign;

    /**
     * Registry-backed knob overrides, collected from --set key=value,
     * --config FILE, and the legacy alias flags (--levels, --l2-kb,
     * --llc-kb, --wb-queue, ...) and applied to the campaign base
     * config — so every harness can be re-run on any machine variant
     * without per-harness plumbing. No private hierarchy parser: the
     * config ParamRegistry validates every value.
     */
    config::Config cfg;

    /**
     * Parse the harness command line; every malformed or unknown
     * argument exits 2 with a diagnostic prefixed by argv[0]. --scale
     * is the run.scale registry key (validated like --set), and
     * --seeds/--jobs are integers in [1, 4096] / [0, 4096]. An option
     * or config key that @p reads excludes exits 2 too, after every
     * such argument is named.
     */
    static Options
    parse(int argc, char **argv, Reads reads = Reads::Campaign)
    {
        Options opt;
        opt.reads = reads;
        const char *prog = opt.prog = argv[0];
        const bool campaign = reads == Reads::Campaign;
        bool inert = false;
        std::optional<unsigned> seeds;
        const auto value = [&](int &i) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s requires a value\n", prog,
                             argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        for (int i = 1; i < argc; ++i) {
            switch (config::parseCliArg(opt.cfg, argv[i], argc, argv,
                                        i, prog)) {
            case config::CliArg::Consumed:
                continue;
            case config::CliArg::Error:
                std::exit(2);
            case config::CliArg::NotMine:
                break;
            }
            const std::string arg = argv[i];
            const bool grid_flag = arg == "--scale" || arg == "--seeds" ||
                                   arg == "--jobs" || arg == "--json" ||
                                   arg == "--csv";
            if ((grid_flag && !campaign) ||
                (arg == "--quick" && reads == Reads::Nothing)) {
                std::fprintf(stderr, "%s: %s has no effect on this "
                                     "harness\n",
                             prog, arg.c_str());
                inert = true;
                if (grid_flag)
                    value(i);
            } else if (arg == "--quick") {
                opt.quick = true;
                opt.scale = 0.1;
                opt.seeds = 1;
            } else if (arg == "--scale") {
                if (const auto error = opt.cfg.set("run.scale", value(i))) {
                    std::fprintf(stderr, "%s: --scale: %s\n", prog,
                                 error->c_str());
                    std::exit(2);
                }
            } else if (arg == "--seeds") {
                seeds = countArg(prog, arg, value(i), 1);
            } else if (arg == "--jobs") {
                opt.jobs = countArg(prog, arg, value(i), 0);
            } else if (arg == "--json") {
                opt.jsonPath = value(i);
            } else if (arg == "--csv") {
                opt.csvPath = value(i);
            } else if (arg == "--help") {
                if (campaign)
                    std::printf("usage: %s [--scale S] [--seeds N] "
                                "[--jobs N] [--quick]\n"
                                "          [--json FILE] [--csv FILE]\n"
                                "\n%s\n",
                                prog, config::cliUsage().c_str());
                else
                    std::printf("usage: %s%s\n", prog,
                                reads == Reads::Quick ? " [--quick]" : "");
                std::exit(0);
            } else {
                std::fprintf(stderr, "%s: unknown argument '%s'\n",
                             prog, arg.c_str());
                std::exit(2);
            }
        }
        // A harness off the campaign path reads no config key.
        if (!campaign &&
            config::KeyScope{0, "this harness"}.reportInert(opt.cfg, prog))
            inert = true;
        if (inert)
            std::exit(2);
        // An explicit --scale / run.scale or --seeds wins over
        // --quick's default, in either order.
        if (const config::ParamValue *scale = opt.cfg.get("run.scale"))
            opt.scale = std::get<double>(*scale);
        if (seeds)
            opt.seeds = *seeds;
        return opt;
    }

    /** @p text as an integer in [@p lo, 4096]; exits 2 with the
     *  `califorms fleet --jobs` style diagnostic otherwise. */
    static unsigned
    countArg(const char *prog, const std::string &flag,
             const std::string &text, unsigned lo)
    {
        const auto v = parseU64(text);
        if (!v || *v < lo || *v > 4096) {
            std::fprintf(stderr,
                         "%s: %s expects an integer in [%u, 4096], "
                         "got '%s'\n",
                         prog, flag.c_str(), lo, text.c_str());
            std::exit(2);
        }
        return static_cast<unsigned>(*v);
    }

    /** The conventional layout-seed list (1000, 1001, ...). */
    std::vector<std::uint64_t>
    layoutSeeds() const
    {
        return exp::CampaignSpec::seedRange(seeds);
    }
};

/** Print a uniform experiment banner with the options the harness
 *  reads. Deliberately omits --jobs: the job count must never change a
 *  harness's output. */
inline void
banner(const char *experiment, const char *paper_summary,
       const Options &opt)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s\n", experiment);
    std::printf("paper reference: %s\n", paper_summary);
    if (opt.reads == Reads::Campaign)
        std::printf("scale=%.2f seeds=%u\n", opt.scale, opt.seeds);
    else if (opt.reads == Reads::Quick)
        std::printf("quick=%s\n", opt.quick ? "on" : "off");
    std::printf("================================================="
                "=====================\n");
}

/** Benchmarks included in the software evaluation (Section 8.2). */
inline std::vector<const SpecBenchmark *>
softwareEvalSuite()
{
    std::vector<const SpecBenchmark *> out;
    for (const auto &b : spec2006Suite())
        if (b.inSoftwareEval)
            out.push_back(&b);
    return out;
}

/** The full 19-benchmark suite (Figures 4 and 10). */
inline std::vector<const SpecBenchmark *>
fullSuite()
{
    std::vector<const SpecBenchmark *> out;
    for (const auto &b : spec2006Suite())
        out.push_back(&b);
    return out;
}

/**
 * Execute @p spec with the harness options applied: scale and layout
 * seeds come from @p opt, execution uses --jobs workers, and the
 * JSON/CSV reports are written if requested (destinations validated
 * before any simulation time is spent). Report notes go to stderr so
 * stdout stays diffable across job counts and report paths. Exits with
 * a message rather than std::terminate on report errors — the bench
 * mains have no try/catch of their own — and exits 2 on a config key
 * that no suite entry consumes or that the grid owns.
 */
inline exp::CampaignResult
runCampaign(const Options &opt, exp::CampaignSpec spec)
{
    if (exp::suiteScope(spec.suite, "this harness's grid", true)
            .reportInert(opt.cfg, opt.prog))
        std::exit(2);
    spec.base.scale = opt.scale;
    spec.layoutSeeds = opt.layoutSeeds();
    // Registry overrides land after the harness's own base settings,
    // so --set / --config / alias flags win over per-harness defaults
    // (a variant's own key sets still win over both).
    opt.cfg.applyTo(spec.base);
    try {
        return exp::runCampaignWithReports(spec, opt.jobs,
                                           opt.jsonPath, opt.csvPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

} // namespace califorms::bench

#endif // CALIFORMS_BENCH_COMMON_HH
