/**
 * @file fleet_throughput.cc
 * The fleet serving engine's throughput harness: one tenant per
 * synthetic workload generator (the five classic streams plus the
 * three adversarial replacement stressors), replayed through the
 * shared replay loop on the work-stealing pool, reporting the merged
 * fleet counters and the sustained ops/sec.
 *
 * The committed BENCH_fleet.json baseline is this harness at --quick
 * --jobs 1; ctest's bench.gate.fleet checks the deterministic
 * counters (exact), CI's bench-baseline job additionally arms the
 * ops/sec floor (tools/bench_gate.py --ops-threshold).
 *
 * stdout is byte-identical at any --jobs value; the wall-clock
 * throughput line goes to stderr, and the JSON report carries the
 * timing object (elapsedMs, opsPerSec) for the time-armed gate.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench/common.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "workload/synth.hh"

using namespace califorms;

int
main(int argc, char **argv)
{
    std::uint64_t duration_ops = 100000;
    unsigned jobs = 1;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            duration_ops = 20000;
        } else if (std::strcmp(argv[i], "--duration-ops") == 0 &&
                   i + 1 < argc) {
            const std::string text = argv[++i];
            const auto v = parseU64(text);
            if (!v || !*v) {
                std::fprintf(stderr,
                             "%s: --duration-ops expects a positive "
                             "integer, got '%s'\n",
                             argv[0], text.c_str());
                return 2;
            }
            duration_ops = *v;
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            jobs = bench::Options::countArg(argv[0], "--jobs",
                                            argv[++i], 0);
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--quick] [--duration-ops N] "
                        "[--jobs N] [--json FILE]\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], argv[i]);
            return 2;
        }
    }

    // One tenant per generator: the full access-pattern space as one
    // mixed-workload fleet, decorrelated by the default seed stride.
    fleet::FleetSpec spec;
    for (const std::string &name : synthWorkloadNames()) {
        fleet::TenantSpec tenant;
        if (auto error = fleet::parseTenantSpec(
                name + " workload=" + name, tenant)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error->c_str());
            return 2;
        }
        spec.tenants.push_back(std::move(tenant));
    }
    spec.durationOps = duration_ops;

    std::printf("=============================================="
                "========================\n");
    std::printf("fleet throughput: %zu mixed-workload tenants\n",
                spec.tenants.size());
    std::printf("duration-ops=%llu stride=%llu\n",
                static_cast<unsigned long long>(duration_ops),
                static_cast<unsigned long long>(
                    spec.base.fleet.tenantSeedStride));
    std::printf("=============================================="
                "========================\n");

    try {
        const fleet::FleetResult result = fleet::runFleet(spec, jobs);
        fleet::printFleetSummary(std::cout, result);
        std::printf("throughput: opsReplayed=%llu shards=%u "
                    "tenants=%zu\n",
                    static_cast<unsigned long long>(result.totalOps),
                    result.shards,
                    result.tenants.size());
        std::fprintf(stderr,
                     "fleet throughput: %.0f ops/s (jobs=%u, "
                     "elapsed=%.1f ms)\n",
                     result.opsPerSec(), result.jobs,
                     result.elapsedMs);
        if (!json_path.empty()) {
            std::ofstream out(json_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "%s: cannot write '%s'\n",
                             argv[0], json_path.c_str());
                return 2;
            }
            out << fleet::fleetJson(spec, result, true);
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return 0;
}
