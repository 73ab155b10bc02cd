/**
 * @file cmd_run.cc
 * `califorms run`: execute one benchmark (or the whole SPEC-like suite)
 * through the full machine model and report the counters every figure
 * is built from. Unlike the fixed per-figure benches this composes any
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

/** One `  <ns>: <suffix>=<value> ...` line per dump namespace of the
 *  rows of @p block the run's machine emits; nothing when it is off. */
void
printBlockLines(const RunResult &r, const RunConfig &config,
                StatBlock block)
{
    std::string open;
    for (const StatRow *row : emittedRows(config.machine, block)) {
        const std::string name = row->name;
        const std::string ns = name.substr(0, name.find('.'));
        if (ns != open)
            std::printf("%s  %s:", open.empty() ? "" : "\n", ns.c_str());
        open = ns;
        std::printf(" %s=%.0f", name.c_str() + ns.size() + 1,
                    row->value(r.mem));
    }
    if (!open.empty())
        std::printf("\n");
}

void
report(const RunResult &r, const RunConfig &config)
{
    std::printf("benchmark=%s policy=%s maxspan=%zu cform=%s\n",
                r.benchmark.c_str(), policyName(config.policy).c_str(),
                config.policyParams.maxSpan,
                config.heap.useCform ? "on" : "off");
    std::printf("  cycles=%llu instructions=%llu ipc=%.3f\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                r.cycles ? static_cast<double>(r.instructions) /
                               static_cast<double>(r.cycles)
                         : 0.0);
    std::printf("  l1miss%%=%.2f l2miss%%=%.2f l3miss%%=%.2f "
                "dram=%.0f cforms=%.0f\n",
                100.0 * statValue(r.mem, "l1d.missRate"),
                100.0 * statValue(r.mem, "l2.missRate"),
                100.0 * statValue(r.mem, "l3.missRate"),
                statValue(r.mem, "dram.accesses"),
                statValue(r.mem, "califorms.cformOps"));
    std::printf("  allocs=%llu frees=%llu exceptions=%zu/%zu "
                "(delivered/suppressed)\n",
                static_cast<unsigned long long>(r.heap.allocs),
                static_cast<unsigned long long>(r.heap.frees),
                r.exceptionsDelivered, r.exceptionsSuppressed);
    printBlockLines(r, config, StatBlock::Memlp);
    // The repl rows print as one compact per-level line.
    const auto repl = emittedRows(config.machine, StatBlock::Repl);
    if (!repl.empty())
        std::printf("  repl: cformEvictions=%.0f/%.0f/%.0f "
                    "cformVictimRate=%.4f\n",
                    repl[0]->value(r.mem), repl[1]->value(r.mem),
                    repl[2]->value(r.mem), repl[3]->value(r.mem));
    // Security rollup only for the attack replay benchmark, keeping
    // every other benchmark's output byte-identical.
    if (r.security.trials > 0)
        std::printf("  security: scenario=%s success_p=%.2f (%llu/%llu)"
                    " detections=%llu crashes=%llu probes=%llu "
                    "detect_cycles=%llu\n",
                    r.security.scenario.c_str(),
                    static_cast<double>(r.security.successes) /
                        static_cast<double>(r.security.trials),
                    static_cast<unsigned long long>(r.security.successes),
                    static_cast<unsigned long long>(r.security.trials),
                    static_cast<unsigned long long>(
                        r.security.detections),
                    static_cast<unsigned long long>(r.security.crashes),
                    static_cast<unsigned long long>(r.security.probes),
                    static_cast<unsigned long long>(
                        r.security.detectionLatencyCycles));
    printBlockLines(r, config, StatBlock::Coherence);
    for (std::size_t c = 0; c < r.cores.size(); ++c) {
        const CoreRunStats &core = r.cores[c];
        std::printf("  core%zu: cycles=%llu instructions=%llu "
                    "l1miss%%=%.2f spills=%.0f fills=%.0f\n",
                    c, static_cast<unsigned long long>(core.cycles),
                    static_cast<unsigned long long>(core.instructions),
                    100.0 * statValue(core.mem, "l1d.missRate"),
                    statValue(core.mem, "califorms.spills"),
                    statValue(core.mem, "califorms.fills"));
    }
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

    for (const SpecBenchmark *b : suite)
        report(runBenchmark(*b, config), config);
    return 0;
}

} // namespace califorms::cli
