/**
 * @file policy_explorer.cpp
 * Command line front end for the simulator: run any benchmark under
 * any insertion policy and print the full gem5-style statistics dump.
 *
 *   policy_explorer [benchmark] [policy] [maxspan] [--no-cform]
 *                   [--extra-latency] [--scale S] [--seed N]
 *
 *   benchmark: one of the 19 SPEC CPU2006 names (default mcf), or
 *              "all" for the whole suite
 *   policy:    none | opportunistic | full | intelligent | fixed
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/stats_dump.hh"
#include "workload/runner.hh"

using namespace califorms;

namespace
{

InsertionPolicy
parsePolicy(const std::string &name)
{
    if (name == "none")
        return InsertionPolicy::None;
    if (name == "opportunistic")
        return InsertionPolicy::Opportunistic;
    if (name == "full")
        return InsertionPolicy::Full;
    if (name == "intelligent")
        return InsertionPolicy::Intelligent;
    if (name == "fixed")
        return InsertionPolicy::FullFixed;
    std::fprintf(stderr, "unknown policy '%s'\n", name.c_str());
    std::exit(1);
}

void
runOne(const SpecBenchmark &bench, const RunConfig &config)
{
    const RunResult r = runBenchmark(bench, config);
    std::printf("\n=== %s  policy=%s  cform=%s ===\n%s",
                bench.name.c_str(), policyName(config.policy).c_str(),
                config.heap.useCform ? "on" : "off",
                dumpStats(r.record(), config.machine).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench_name = "mcf";
    RunConfig config;
    config.scale = 0.5;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--no-cform") {
            config.withCform(false);
        } else if (arg == "--extra-latency") {
            config.machine.mem.extraL2L3Latency = 1;
        } else if (arg == "--scale" && i + 1 < argc) {
            config.scale = std::atof(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            config.layoutSeed =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (arg == "--help") {
            std::puts("usage: policy_explorer [benchmark|all] "
                      "[none|opportunistic|full|intelligent|fixed] "
                      "[maxspan] [--no-cform] [--extra-latency] "
                      "[--scale S] [--seed N]");
            return 0;
        } else if (positional == 0) {
            bench_name = arg;
            ++positional;
        } else if (positional == 1) {
            config.policy = parsePolicy(arg);
            ++positional;
        } else if (positional == 2) {
            config.policyParams.maxSpan =
                static_cast<std::size_t>(std::atoi(arg.c_str()));
            config.policyParams.fixedSpan = config.policyParams.maxSpan;
            ++positional;
        }
    }

    if (bench_name == "all") {
        for (const auto &b : spec2006Suite())
            runOne(b, config);
        return 0;
    }
    runOne(findBenchmark(bench_name), config);
    return 0;
}
