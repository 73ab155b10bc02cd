/**
 * @file engine.hh
 * The fleet serving engine: replay M independent tenant streams on
 * per-tenant Machine instances, sharded across the campaign
 * work-stealing pool, with results merged in tenant order.
 *
 * Each tenant resolves its own configuration — the fleet's base
 * RunConfig, the tenant's validated overlay on top, then the seed
 * stride (tenant t's generator seed is base workload.seed +
 * fleet.tenant_seed_stride * t unless the overlay pins
 * workload.seed). Tenants are single-stream by construction; a base
 * with core.count > 1 is rejected, not silently run on core 0.
 *
 * Determinism: every tenant writes its own result slot and carries
 * its own machine and RNG state, so the merged FleetResult is
 * bit-identical at any jobs count and any fleet.shards value — only
 * the wall clock (elapsedMs, and the ops/sec derived from it)
 * varies.
 */

#ifndef CALIFORMS_FLEET_ENGINE_HH
#define CALIFORMS_FLEET_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/tenant.hh"
#include "sim/trace.hh"
#include "workload/runner.hh"

namespace califorms::fleet
{

/** The whole fleet, declaratively. */
struct FleetSpec
{
    std::vector<TenantSpec> tenants;
    /** Fleet-wide defaults (machine, workload knobs, fleet.*); each
     *  tenant's overlay applies on top of a copy. */
    RunConfig base{};
    /** Per-tenant replay budget in ops; 0 = each generator tenant's
     *  resolved workload.ops, trace tenants drain their file. */
    std::uint64_t durationOps = 0;
};

/** One tenant's merged block: its machine's snapshot plus the replay
 *  totals. */
struct TenantResult : RunStats
{
    std::string id;
    std::string source; //!< "workload=..." or "trace=..."
    ReplayStats replay{};
};

/** The merged fleet: per-tenant blocks plus the throughput facts. */
struct FleetResult
{
    std::vector<TenantResult> tenants; //!< tenant order == spec order
    unsigned shards = 0;               //!< effective shard count
    std::uint64_t tenantSeedStride = 0;
    std::uint64_t durationOps = 0;
    std::uint64_t totalOps = 0; //!< sum of tenant replay.ops
    unsigned jobs = 1;          //!< effective pool width used
    double elapsedMs = 0;       //!< replay wall clock (jobs-dependent)

    /** Replay rate in ops per second (0 when elapsedMs is 0). */
    double opsPerSec() const;
};

/** Resolve tenant @p index's full configuration (base + overlay +
 *  seed stride) — exposed so tests can pin the resolution rules. */
RunConfig resolveTenantConfig(const FleetSpec &spec, std::size_t index);

/**
 * Replay the whole fleet on @p jobs workers (0 = all hardware
 * threads). Throws std::invalid_argument on an invalid fleet (no
 * tenants, duplicate ids, multi-core base) and std::runtime_error on
 * an unreadable tenant trace.
 */
FleetResult runFleet(const FleetSpec &spec, unsigned jobs);

} // namespace califorms::fleet

#endif // CALIFORMS_FLEET_ENGINE_HH
