/**
 * @file cmd_run.cc
 * `califorms run`: execute one benchmark (or the whole SPEC-like suite)
 * through the full machine model and print every counter-table row
 * the run emits (statLines), the values every figure is built from.
 * Unlike the fixed per-figure benches this composes any
 * (benchmark, policy, span, latency, L1 format) combination; every
 * machine knob is reachable through --set key=value / --config FILE,
 * with the historical flags kept as registry aliases.
 */

#include "cli.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exp/campaign.hh"
#include "sim/stats_dump.hh"
#include "workload/runner.hh"
#include "workload/synth.hh"

namespace califorms::cli
{
namespace
{

constexpr const char *prog = "califorms run";

void
usage()
{
    std::printf(
        "usage: califorms run <benchmark|all> [options]\n"
        "\n"
        "options:\n"
        "  --maxspan N     maximum random span size; also sets the "
        "fixed span\n"
        "  --scale S       workload iteration multiplier (default 0.5)\n"
        "  --seed N        layout randomization seed (default 7)\n"
        "  --no-cform      allocate layouts but never issue CFORMs\n"
        "  --extra-latency add one cycle to L2 and L3 (Figure 10)\n"
        "  --cores N       multi-core machine (synthetic workloads "
        "only);\n"
        "                  alias for --set core.count=N\n"
        "%s\n",
        config::cliUsage().c_str());
}

} // namespace

int
cmdRun(int argc, char **argv)
{
    std::string bench_name;
    config::Config cfg;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        switch (config::parseCliArg(cfg, arg, argc, argv, i, prog)) {
        case config::CliArg::Consumed:
            continue;
        case config::CliArg::Error:
            return 2;
        case config::CliArg::NotMine:
            break;
        }
        if (arg == "--maxspan") {
            const std::string text = flagValue(argc, argv, i);
            if (!setOrReport(cfg, prog, arg, "layout.max_span", text) ||
                !setOrReport(cfg, prog, arg, "layout.fixed_span", text))
                return 2;
        } else if (arg == "--scale") {
            if (!setOrReport(cfg, prog, arg, "run.scale",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--seed") {
            if (!setOrReport(cfg, prog, arg, "layout.seed",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--no-cform") {
            cfg.set("heap.use_cform", "false");
            cfg.set("stack.use_cform", "false");
        } else if (arg == "--extra-latency") {
            cfg.set("mem.extra_l2l3_latency", "1");
        } else if (arg == "--help") {
            usage();
            return 0;
        } else if (bench_name.empty() && arg[0] != '-') {
            bench_name = arg;
        } else {
            std::fprintf(stderr, "califorms run: unknown argument "
                                 "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (bench_name.empty()) {
        usage();
        return 2;
    }

    std::vector<const SpecBenchmark *> suite;
    if (bench_name == "all") {
        for (const auto &b : spec2006Suite())
            suite.push_back(&b);
    } else {
        suite.push_back(&findBenchmark(bench_name));
    }
    const config::KeyScope scope =
        exp::suiteScope(suite, "benchmark '" + bench_name + "'", false);
    if (scope.reportInert(cfg, prog))
        return 2;

    RunConfig config;
    config.scale = 0.5;
    cfg.applyTo(config);

    // Only the synthetic workloads fan out one stream per core;
    // running a single-threaded kernel on a multi-core machine would
    // silently misreport scaling, so reject it here with a friendlier
    // message than the runBenchmark throw.
    if (config.machine.core.count > 1 && !isSynthWorkload(bench_name)) {
        std::fprintf(stderr,
                     "califorms run: benchmark '%s' cannot honor "
                     "core.count=%u (only the synthetic workloads run "
                     "multi-core)\n",
                     bench_name.c_str(), config.machine.core.count);
        return 2;
    }

    for (const SpecBenchmark *b : suite) {
        const RunResult r = runBenchmark(*b, config);
        std::printf("benchmark=%s policy=%s maxspan=%zu cform=%s\n%s",
                    r.benchmark.c_str(), policyName(config.policy).c_str(),
                    config.policyParams.maxSpan,
                    config.heap.useCform ? "on" : "off",
                    statLines(r.record(), config.machine).c_str());
    }
    return 0;
}

} // namespace califorms::cli
