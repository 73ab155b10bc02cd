/**
 * @file cmd_attack.cc
 * `califorms attack`: replay one registered attack scenario (or `all`
 * of them, in registry order) against a califormed victim heap. Each
 * scenario prints one line, its multi-trial rollup: the counter
 * table's security rows (success probability, detections, probes,
 * crash and cycle costs).
 * All knobs are `attack.*` registry keys; the historical flags are
 * aliases for them.
 */

#include "cli.hh"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "security/scenarios.hh"
#include "sim/machine.hh"
#include "sim/stats_dump.hh"

namespace califorms::cli
{
namespace
{

constexpr const char *prog = "califorms attack";

void
usage()
{
    std::string scenarios;
    for (const auto &n : attackScenarioNames())
        scenarios += (scenarios.empty() ? "" : "|") + n;
    std::printf(
        "usage: califorms attack <%s|all> [options]\n"
        "\n"
        "options:\n"
        "  --maxspan N     maximum random span size (default 7); also "
        "sets the fixed span\n"
        "  --seed N        attacker + layout seed (default 31337)\n"
        "  --objects N     victim heap population (alias for "
        "attack.objects)\n"
        "  --crashes N     respawn budget (alias for "
        "attack.crash_budget)\n"
        "%s\n"
        "(the victim policy defaults to 'full' here, not the registry "
        "default)\n",
        scenarios.c_str(), config::cliUsage().c_str());
}

struct AttackSetup
{
    InsertionPolicy policy = InsertionPolicy::Full;
    PolicyParams params{1, 7, 1};
    std::uint64_t seed = 31337;
    MachineParams machine{};
    HeapParams heap{};
    AttackParams attack{};
};

/** One scenario's multi-trial rollup line. */
void
runScenario(const AttackSetup &s, const std::string &name)
{
    Machine machine(s.machine);
    AttackParams params = s.attack;
    params.scenario = name;
    const SecurityRunStats r = runAttackTrials(
        machine, s.heap, s.policy, s.params, s.seed, params,
        static_cast<std::size_t>(params.seeds));
    // The rollup is the counter table's security rows; the scenario's
    // label row is the line's name.
    const RunStats none{};
    const RunRecord record{none, {}, nullptr, &r};
    std::string line = name + ":";
    for (const StatRow *row :
         emittedRows(s.machine, record, StatBlock::Security))
        if (!row->label)
            line += " " + std::string(row->key()) + "=" + row->text(record);
    std::printf("%s\n", line.c_str());
}

} // namespace

int
cmdAttack(int argc, char **argv)
{
    std::string scenario;
    AttackSetup s;
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
        } else if (arg == "--seed") {
            if (!setOrReport(cfg, prog, arg, "layout.seed",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--objects") {
            if (!setOrReport(cfg, prog, arg, "attack.objects",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--crashes") {
            if (!setOrReport(cfg, prog, arg, "attack.crash_budget",
                             flagValue(argc, argv, i)))
                return 2;
        } else if (arg == "--help") {
            usage();
            return 0;
        } else if (scenario.empty() && arg[0] != '-') {
            scenario = arg;
        } else {
            std::fprintf(stderr, "califorms attack: unknown argument "
                                 "'%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    const config::KeyScope scope{config::kAttackScope,
                                 "the attack scenarios"};
    if (scope.reportInert(cfg, prog))
        return 2;
    const bool scenario_key_set = cfg.isSet("attack.scenario");
    if (!scenario.empty() && scenario_key_set) {
        std::fprintf(stderr,
                     "%s: give the scenario positionally ('%s') or via "
                     "attack.scenario, not both\n",
                     prog, scenario.c_str());
        return 2;
    }

    // The attack scenarios deviate from the registry defaults: the
    // victim is califormed (policy full, spans 1..7) and the shared
    // attacker/layout seed is 31337. Seed those into a RunConfig and
    // let the explicit config sets override them.
    RunConfig rc;
    rc.policy = s.policy;
    rc.policyParams = s.params;
    rc.layoutSeed = s.seed;
    cfg.applyTo(rc);
    s.policy = rc.policy;
    s.params = rc.policyParams;
    s.seed = rc.layoutSeed;
    s.machine = rc.machine;
    s.heap = rc.heap;
    s.attack = rc.attack;
    if (scenario.empty() && scenario_key_set)
        scenario = rc.attack.scenario;

    // The attacker is a single agent probing from one core; a
    // multi-core machine would be a silent no-op here.
    if (s.machine.core.count > 1) {
        std::fprintf(stderr,
                     "%s: core.count=%u has no effect on an attack "
                     "replay (the attacker probes from one core)\n",
                     prog, s.machine.core.count);
        return 2;
    }

    if (scenario.empty()) {
        usage();
        return 2;
    }
    if (scenario == "all") {
        for (const std::string &name : attackScenarioNames())
            runScenario(s, name);
        return 0;
    }
    try {
        findAttackScenario(scenario);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.what());
        return 2;
    }
    runScenario(s, scenario);
    return 0;
}

} // namespace califorms::cli
