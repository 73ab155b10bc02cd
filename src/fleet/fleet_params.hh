/**
 * @file fleet_params.hh
 * Knobs of the fleet serving engine (src/fleet/), exposed as the
 * fleet.* keys of the config ParamRegistry. Kept in a dependency-free
 * header so RunConfig can carry the struct without pulling in the
 * engine machinery (the synth_params.hh convention).
 */

#ifndef CALIFORMS_FLEET_FLEET_PARAMS_HH
#define CALIFORMS_FLEET_FLEET_PARAMS_HH

#include <cstddef>
#include <cstdint>

namespace califorms
{

struct FleetParams
{
    /** Number of replay shards the tenant list is split into; each
     *  shard replays its tenants sequentially and the shards run on
     *  the campaign work-stealing pool. 0 = one shard per tenant
     *  (maximum parallelism). Results merge in tenant order, so the
     *  shard count never changes any counter. */
    unsigned shards = 0;
    /** Tenant t's generator seed is workload.seed + stride * t unless
     *  the tenant's own overlay pins workload.seed. Stride 0 gives
     *  every same-workload tenant the identical stream. */
    std::uint64_t tenantSeedStride = 1;
};

} // namespace califorms

#endif // CALIFORMS_FLEET_FLEET_PARAMS_HH
