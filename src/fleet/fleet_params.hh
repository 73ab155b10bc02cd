/**
 * @file fleet_params.hh
 * Knobs of the fleet serving engine (src/fleet/), exposed as the
 * fleet.* keys of the config ParamRegistry. Kept in a dependency-free
 * header so RunConfig can carry the struct without pulling in the
 * engine machinery (the synth_params.hh convention).
 */

#ifndef CALIFORMS_FLEET_FLEET_PARAMS_HH
#define CALIFORMS_FLEET_FLEET_PARAMS_HH

#include <cstdint>

namespace califorms
{

struct FleetParams
{
    /** Tenant t's generator seed is workload.seed + stride * t unless
     *  the tenant's own overlay pins workload.seed. Stride 0 gives
     *  every same-workload tenant the identical stream. */
    std::uint64_t tenantSeedStride = 1;
};

} // namespace califorms

#endif // CALIFORMS_FLEET_FLEET_PARAMS_HH
