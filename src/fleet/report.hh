/**
 * @file report.hh
 * The merged fleet report: "califorms-campaign/v2" JSON with one run
 * block per tenant (keyed benchmark=source, variant=tenant id, so the
 * bench_gate comparison works unchanged, and carrying the replay
 * totals and the counter-table record runJson renders) plus the
 * first-class "throughput" object — opsReplayed / shards / tenants are
 * deterministic and exact-gated; opsPerSec is derived from the wall
 * clock and only emitted when timing is included, keeping the
 * timing-free report byte-identical at any --jobs value.
 */

#ifndef CALIFORMS_FLEET_REPORT_HH
#define CALIFORMS_FLEET_REPORT_HH

#include <iosfwd>
#include <string>

#include "fleet/engine.hh"

namespace califorms::fleet
{

/** Render the merged fleet as JSON. @p include_timing controls the
 *  "timing" object and throughput.opsPerSec (both wall-clock
 *  derived); everything else is deterministic. */
std::string fleetJson(const FleetSpec &spec, const FleetResult &result,
                      bool include_timing);

/** The human-readable per-tenant summary (deterministic — wall-clock
 *  lines belong on stderr, see cmd_fleet). */
void printFleetSummary(std::ostream &os, const FleetResult &result);

} // namespace califorms::fleet

#endif // CALIFORMS_FLEET_REPORT_HH
