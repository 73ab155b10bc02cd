/**
 * @file test_fleet.cc
 * Fleet serving engine tests: tenant manifest parsing and the overlay
 * restriction rules, per-tenant config resolution (overlay precedence
 * and the seed stride), and the merged-report determinism contract:
 * per-tenant sums equal the fleet totals and the timing-free JSON is
 * byte-identical at any jobs value. The replay loop itself is
 * tested with the trace code (ReplayStreams.* in test_trace.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "config/config.hh"
#include "fleet/engine.hh"
#include "fleet/report.hh"
#include "sim/trace.hh"
#include "trace_helpers.hh"
#include "workload/synth.hh"

namespace califorms::fleet
{
namespace
{

TenantSpec
mustParse(const std::string &line)
{
    TenantSpec tenant;
    const auto error = parseTenantSpec(line, tenant);
    EXPECT_FALSE(error) << (error ? *error : "");
    return tenant;
}

std::string
parseError(const std::string &line)
{
    TenantSpec tenant;
    const auto error = parseTenantSpec(line, tenant);
    EXPECT_TRUE(error) << line;
    return error ? *error : "";
}

// Manifest and --tenant spec parsing -----------------------------------

TEST(TenantSpecParse, GeneratorTenantWithOverlay)
{
    const TenantSpec t =
        mustParse("web workload=zipf mem.l2_size_kb=128 "
                  "workload.ops=5000");
    EXPECT_EQ(t.id, "web");
    EXPECT_EQ(t.workload, "zipf");
    EXPECT_TRUE(t.tracePath.empty());
    EXPECT_EQ(t.source(), "workload=zipf");
    ASSERT_EQ(t.sets.size(), 2u);
    EXPECT_EQ(t.sets[0].first, "mem.l2_size_kb");
    EXPECT_EQ(t.sets[0].second, "128");
    EXPECT_TRUE(t.overlaySets("workload.ops"));
    EXPECT_FALSE(t.overlaySets("workload.seed"));
}

TEST(TenantSpecParse, TraceTenant)
{
    const TenantSpec t = mustParse("db trace=/tmp/x.trc mem.levels=2");
    EXPECT_EQ(t.id, "db");
    EXPECT_EQ(t.tracePath, "/tmp/x.trc");
    EXPECT_EQ(t.source(), "trace=/tmp/x.trc");
}

TEST(TenantSpecParse, Diagnostics)
{
    EXPECT_NE(parseError("").find("empty tenant spec"),
              std::string::npos);
    EXPECT_NE(parseError("workload=zipf")
                  .find("must start with an id"),
              std::string::npos);
    EXPECT_NE(parseError("web").find("missing source"),
              std::string::npos);
    EXPECT_NE(parseError("web workload=doom")
                  .find("unknown workload 'doom'"),
              std::string::npos);
    EXPECT_NE(parseError("web trace=").find("empty trace path"),
              std::string::npos);
    EXPECT_NE(parseError("web zipf").find("expected workload=<name>"),
              std::string::npos);
    EXPECT_NE(parseError("web workload=zipf junk")
                  .find("expected key=value"),
              std::string::npos);
    // Overlay family restriction: only mem.* and workload.* are
    // tenant knobs; everything else is rejected, not ignored.
    EXPECT_NE(parseError("web workload=zipf layout.seed=3")
                  .find("layout.seed has no effect on tenant 'web'"),
              std::string::npos);
    EXPECT_NE(parseError("web workload=zipf fleet.tenant_seed_stride=2")
                  .find("fleet.tenant_seed_stride has no effect on "
                        "tenant 'web'"),
              std::string::npos);
    // workload.* on a trace tenant: the trace already fixes the
    // stream.
    EXPECT_NE(parseError("db trace=/tmp/x workload.ops=5")
                  .find("workload.ops has no effect on tenant 'db'"),
              std::string::npos);
    // Values go through the registry, with --set's exact diagnostics.
    EXPECT_NE(parseError("web workload=zipf mem.levels=9")
                  .find("expects an integer in [1, 3]"),
              std::string::npos);
}

TEST(ManifestParse, CommentsBlanksAndLineNumbers)
{
    std::vector<TenantSpec> tenants;
    const auto ok = parseManifest("# fleet manifest\n"
                                  "\n"
                                  "web workload=zipf   # hot tenant\n"
                                  "  \t \n"
                                  "db workload=scan mem.levels=2\n",
                                  tenants);
    EXPECT_FALSE(ok) << (ok ? *ok : "");
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].id, "web");
    EXPECT_EQ(tenants[1].id, "db");
    EXPECT_EQ(tenants[1].sets.size(), 1u);

    std::vector<TenantSpec> bad;
    const auto error =
        parseManifest("web workload=zipf\n\nweb2 nope\n", bad);
    ASSERT_TRUE(error);
    EXPECT_NE(error->find("manifest line 3:"), std::string::npos);
}

TEST(ManifestParse, ValidateTenants)
{
    std::vector<TenantSpec> none;
    const auto empty = validateTenants(none);
    ASSERT_TRUE(empty);
    EXPECT_NE(empty->find("fleet has no tenants"), std::string::npos);

    std::vector<TenantSpec> dup = {mustParse("web workload=zipf"),
                                   mustParse("db workload=scan"),
                                   mustParse("web workload=ring")};
    const auto error = validateTenants(dup);
    ASSERT_TRUE(error);
    EXPECT_NE(error->find("duplicate tenant id 'web'"),
              std::string::npos);
}

// Per-tenant config resolution -----------------------------------------

FleetSpec
smallFleet(std::uint64_t duration_ops = 4000)
{
    FleetSpec spec;
    spec.tenants = {mustParse("a workload=zipf"),
                    mustParse("b workload=zipf"),
                    mustParse("c workload=scan mem.l2_size_kb=128"),
                    mustParse("d workload=stackchurn")};
    spec.durationOps = duration_ops;
    return spec;
}

TEST(ResolveTenantConfig, OverlayAndSeedStride)
{
    FleetSpec spec = smallFleet();
    spec.base.fleet.tenantSeedStride = 10;
    spec.base.synth.seed = 100;

    // Tenant 0 keeps the base seed; tenant 1 is strided; the overlay
    // applies on top of a copy of the base (tenant 2's L2 shrinks,
    // the others keep the default).
    EXPECT_EQ(resolveTenantConfig(spec, 0).synth.seed, 100u);
    EXPECT_EQ(resolveTenantConfig(spec, 1).synth.seed, 110u);
    EXPECT_EQ(resolveTenantConfig(spec, 2).synth.seed, 120u);
    EXPECT_EQ(resolveTenantConfig(spec, 2).machine.mem.l2Size,
              128u * 1024);
    EXPECT_NE(resolveTenantConfig(spec, 1).machine.mem.l2Size,
              128u * 1024);
}

TEST(ResolveTenantConfig, OverlayPinnedSeedBeatsStride)
{
    FleetSpec spec;
    spec.tenants = {mustParse("a workload=zipf"),
                    mustParse("b workload=zipf workload.seed=42")};
    spec.base.fleet.tenantSeedStride = 10;
    spec.base.synth.seed = 100;
    EXPECT_EQ(resolveTenantConfig(spec, 0).synth.seed, 100u);
    EXPECT_EQ(resolveTenantConfig(spec, 1).synth.seed, 42u);
}

TEST(ResolveTenantConfig, StrideZeroGivesIdenticalStreams)
{
    FleetSpec spec;
    spec.tenants = {mustParse("a workload=zipf"),
                    mustParse("b workload=zipf")};
    spec.base.fleet.tenantSeedStride = 0;
    spec.durationOps = 3000;
    const FleetResult result = runFleet(spec, 1);
    ASSERT_EQ(result.tenants.size(), 2u);
    // Same workload, same seed: bit-identical tenants.
    EXPECT_EQ(result.tenants[0].replay.checksum,
              result.tenants[1].replay.checksum);
    EXPECT_EQ(result.tenants[0].cycles, result.tenants[1].cycles);

    // Stride 1 (the default) decorrelates them.
    spec.base.fleet.tenantSeedStride = 1;
    const FleetResult strided = runFleet(spec, 1);
    EXPECT_NE(strided.tenants[0].replay.checksum,
              strided.tenants[1].replay.checksum);
    // ...without touching tenant 0, whose seed is unstrided.
    EXPECT_EQ(strided.tenants[0].replay.checksum,
              result.tenants[0].replay.checksum);
}

// The fleet engine ------------------------------------------------------

TEST(RunFleet, PerTenantSumsEqualMergedTotals)
{
    const FleetSpec spec = smallFleet();
    const FleetResult result = runFleet(spec, 2);
    ASSERT_EQ(result.tenants.size(), 4u);
    std::uint64_t ops = 0;
    for (const TenantResult &t : result.tenants) {
        EXPECT_EQ(t.replay.ops, 4000u) << t.id;
        ops += t.replay.ops;
    }
    EXPECT_EQ(result.totalOps, ops);
    EXPECT_EQ(result.tenants[0].id, "a");
    EXPECT_EQ(result.tenants[3].id, "d");
}

TEST(RunFleet, JobsInvariant)
{
    // The determinism contract: tenants, counters, and the timing-free
    // JSON are identical at any jobs count, including fewer workers
    // than tenants.
    const FleetSpec spec = smallFleet();
    const std::string serial_json =
        fleetJson(spec, runFleet(spec, 1), false);
    for (const unsigned jobs : {3u, 8u})
        EXPECT_EQ(fleetJson(spec, runFleet(spec, jobs), false),
                  serial_json)
            << "jobs " << jobs;
}

TEST(RunFleet, InvalidFleetsThrow)
{
    FleetSpec empty;
    EXPECT_THROW(runFleet(empty, 1), std::invalid_argument);

    FleetSpec multicore = smallFleet();
    multicore.base.machine.core.count = 2;
    EXPECT_THROW(runFleet(multicore, 1), std::invalid_argument);

    FleetSpec missing;
    missing.tenants = {mustParse("t trace=/nonexistent/x.trc")};
    EXPECT_THROW(runFleet(missing, 1), std::runtime_error);
}

TEST(RunFleet, TraceTenantMatchesDirectReplay)
{
    // Serialize a generator stream to a binary trace file, then serve
    // it as a trace tenant: the fleet must reproduce the direct
    // machine replay exactly.
    SynthParams params;
    const std::uint64_t ops = 5000;
    const auto gen = makeSynthGenerator("ring", params, ops);
    Trace trace;
    TraceOp op;
    while (gen->next(op))
        trace.push_back(op);

    const std::string path =
        testing::TempDir() + "fleet_ring.caltrc";
    {
        std::ofstream os(path, std::ios::binary);
        writeTraceBinary(os, trace);
    }

    Machine direct({}, ExceptionUnit::Policy::Record);
    const std::uint64_t checksum = runTrace(direct, trace);

    FleetSpec spec;
    spec.tenants = {mustParse("ring trace=" + path)};
    const FleetResult result = runFleet(spec, 1);
    std::remove(path.c_str());
    ASSERT_EQ(result.tenants.size(), 1u);
    EXPECT_EQ(result.tenants[0].replay.ops, ops);
    EXPECT_EQ(result.tenants[0].replay.checksum, checksum);
    EXPECT_EQ(result.tenants[0].cycles, direct.cycles());
    EXPECT_EQ(result.tenants[0].source, "trace=" + path);
}

// The merged report -----------------------------------------------------

TEST(FleetReport, ShapeAndDeterminism)
{
    const FleetSpec spec = smallFleet();
    const FleetResult result = runFleet(spec, 4);
    const std::string json = fleetJson(spec, result, false);

    // v2 schema with the fleet and throughput objects; no wall-clock
    // fields without timing.
    EXPECT_NE(json.find("\"schema\": \"califorms-campaign/v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"campaign\": \"fleet\""), std::string::npos);
    EXPECT_NE(json.find("\"throughput\": {\"opsReplayed\": 16000"),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant\": \"c\""), std::string::npos);
    EXPECT_EQ(json.find("opsPerSec"), std::string::npos);
    EXPECT_EQ(json.find("timing"), std::string::npos);

    // With timing, the rate and the timing object appear.
    const std::string timed = fleetJson(spec, result, true);
    EXPECT_NE(timed.find("opsPerSec"), std::string::npos);
    EXPECT_NE(timed.find("\"timing\": {\"jobs\": "), std::string::npos);

    // The summary printer is deterministic too.
    std::ostringstream a, b;
    printFleetSummary(a, result);
    printFleetSummary(b, runFleet(spec, 8));
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("fleet: 4 tenants"), std::string::npos);
    EXPECT_NE(a.str().find("tenant a: workload=zipf"),
              std::string::npos);
}

TEST(FleetReport, TenantBlocksFollowTheResolvedOverlay)
{
    // Each tenant's counter blocks are gated by its own resolved
    // config: the overlay enabling MSHRs, banked DRAM and DRRIP gets
    // "memlp" and "repl"; the default tenant keeps just "mem".
    FleetSpec spec;
    spec.tenants = {mustParse("plain workload=zipf"),
                    mustParse("tuned workload=zipf mem.mshr_entries=8 "
                              "mem.dram_banks=8 mem.repl_policy=drrip")};
    spec.durationOps = 2000;
    const FleetResult result = runFleet(spec, 1);
    const std::string json = fleetJson(spec, result, false);
    const std::size_t tuned = json.find("\"tenant\": \"tuned\"");
    ASSERT_NE(tuned, std::string::npos);
    const std::string plain_run = json.substr(0, tuned);
    const std::string tuned_run = json.substr(tuned);
    EXPECT_NE(plain_run.find("\"mem\": {"), std::string::npos);
    EXPECT_EQ(plain_run.find("\"memlp\""), std::string::npos);
    EXPECT_EQ(plain_run.find("\"repl\""), std::string::npos);
    EXPECT_NE(tuned_run.find("\"memlp\": {\"mshr.allocations\": "),
              std::string::npos);
    EXPECT_NE(tuned_run.find("\"dram.rowConflicts\""), std::string::npos);
    EXPECT_NE(tuned_run.find("\"repl\": {\"repl.l1d.cformEvictions\": "),
              std::string::npos);
    EXPECT_EQ(json.find("\"coherence\""), std::string::npos);
}

TEST(FleetReport, ChecksumRendersAsHexString)
{
    FleetSpec spec;
    spec.tenants = {mustParse("t workload=zipf")};
    spec.durationOps = 2000;
    const FleetResult result = runFleet(spec, 1);
    char expect[32];
    std::snprintf(expect, sizeof(expect), "\"%016llx\"",
                  static_cast<unsigned long long>(
                      result.tenants[0].replay.checksum));
    EXPECT_NE(fleetJson(spec, result, false).find(expect),
              std::string::npos);
}

TEST(FleetResultApi, OpsPerSec)
{
    FleetResult r;
    r.totalOps = 5000;
    r.elapsedMs = 0;
    EXPECT_EQ(r.opsPerSec(), 0.0);
    r.elapsedMs = 500;
    EXPECT_DOUBLE_EQ(r.opsPerSec(), 10000.0);
}

} // namespace
} // namespace califorms::fleet
