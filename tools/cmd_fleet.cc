/**
 * @file cmd_fleet.cc
 * `califorms fleet`: the multi-tenant serving engine. Replays M
 * independent tenant streams — synthetic generators or trace files,
 * each with its own validated config overlay — on per-tenant machines,
 * one campaign pool task per tenant, and merges them into one
 * deterministic v2 report with a first-class throughput object.
 *
 * stdout (the tenant summary) and the --json report without timing
 * are byte-identical at any --jobs value; the wall-clock throughput
 * line goes to stderr, like every other timing surface.
 */

#include "cli.hh"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "workload/synth.hh"

namespace califorms::cli
{
namespace
{

constexpr const char *prog = "califorms fleet";

void
usage()
{
    std::string workloads;
    for (const std::string &name : synthWorkloadNames())
        workloads += (workloads.empty() ? "" : "|") + name;
    std::printf(
        "usage: califorms fleet [--manifest FILE] [--tenant SPEC]... "
        "[options]\n"
        "\n"
        "tenant sources (at least one tenant required):\n"
        "  --manifest FILE  one tenant per line:\n"
        "                     <id> workload=<name>|trace=<path> "
        "[key=value ...]\n"
        "                   ('#' comments; overlay keys: mem.* and, "
        "for generator\n"
        "                   tenants, workload.*)\n"
        "  --tenant SPEC    one inline tenant, same syntax "
        "(repeatable)\n"
        "\n"
        "options:\n"
        "  --duration-ops N per-tenant replay budget in ops "
        "(generators default to\n"
        "                   workload.ops; traces drain their file)\n"
        "  --jobs N         pool workers, 0 = all hardware threads "
        "(default 0);\n"
        "                   stdout and the timing-free report are "
        "jobs-invariant\n"
        "  --json FILE      write the merged fleet report\n"
        "  --no-timing      omit wall-clock fields (the \"timing\" "
        "object and\n"
        "                   throughput.opsPerSec)\n"
        "%s\n"
        "base config keys: mem.*, workload.*, fleet.* "
        "(fleet.tenant_seed_stride);\nworkloads: %s\n",
        config::cliUsage().c_str(), workloads.c_str());
}

} // namespace

int
cmdFleet(int argc, char **argv)
{
    config::Config cfg;
    std::vector<fleet::TenantSpec> tenants;
    std::uint64_t duration_ops = 0;
    unsigned jobs = 0;
    std::string json_path;
    bool include_timing = true;

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
        if (arg == "--manifest") {
            if (auto error = fleet::loadManifest(
                    flagValue(argc, argv, i), tenants)) {
                std::fprintf(stderr, "%s: %s\n", prog, error->c_str());
                return 2;
            }
        } else if (arg == "--tenant") {
            fleet::TenantSpec tenant;
            if (auto error = fleet::parseTenantSpec(
                    flagValue(argc, argv, i), tenant)) {
                std::fprintf(stderr, "%s: --tenant: %s\n", prog,
                             error->c_str());
                return 2;
            }
            tenants.push_back(std::move(tenant));
        } else if (arg == "--duration-ops") {
            const std::string text = flagValue(argc, argv, i);
            const auto v = parseU64(text);
            if (!v || !*v) {
                std::fprintf(stderr,
                             "%s: --duration-ops expects a positive "
                             "integer, got '%s'\n",
                             prog, text.c_str());
                return 2;
            }
            duration_ops = *v;
        } else if (arg == "--jobs") {
            const auto v =
                countOrReport(prog, arg, flagValue(argc, argv, i), 0, 4096);
            if (!v)
                return 2;
            jobs = *v;
        } else if (arg == "--json") {
            json_path = flagValue(argc, argv, i);
        } else if (arg == "--no-timing") {
            include_timing = false;
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", prog,
                         arg.c_str());
            return 2;
        }
    }

    if (fleet::baseScope(tenants).reportInert(cfg, prog))
        return 2;

    if (auto error = fleet::validateTenants(tenants)) {
        std::fprintf(stderr, "%s: %s\n", prog, error->c_str());
        return 2;
    }

    fleet::FleetSpec spec;
    spec.tenants = std::move(tenants);
    spec.base = cfg.makeRunConfig();
    spec.durationOps = duration_ops;

    const fleet::FleetResult result = fleet::runFleet(spec, jobs);
    fleet::printFleetSummary(std::cout, result);
    std::fprintf(stderr,
                 "fleet throughput: %.0f ops/s (jobs=%u, "
                 "elapsed=%.1f ms)\n",
                 result.opsPerSec(), result.jobs, result.elapsedMs);

    if (!json_path.empty()) {
        std::ofstream out(json_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "%s: cannot write '%s'\n", prog,
                         json_path.c_str());
            return 1;
        }
        out << fleet::fleetJson(spec, result, include_timing);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    return 0;
}

} // namespace califorms::cli
