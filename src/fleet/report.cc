#include "fleet/report.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "sim/stats_dump.hh"
#include "util/jsonout.hh"

namespace califorms::fleet
{

namespace
{

/** Checksums are full 64-bit words; a JSON number would lose bits
 *  past 2^53 in double-parsing consumers, so they render as fixed-
 *  width hex strings. */
std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return std::string(buf);
}

} // namespace

std::string
fleetJson(const FleetSpec &spec, const FleetResult &result,
          bool include_timing)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"califorms-campaign/v2\",\n";
    os << "  \"campaign\": \"fleet\",\n";
    os << "  \"fleet\": {\"tenants\": " << result.tenants.size()
       << ", \"durationOps\": " << result.durationOps
       << ", \"tenantSeedStride\": " << result.tenantSeedStride
       << "},\n";
    // The first-class throughput object: the deterministic counters
    // always; the wall-clock-derived rate only alongside "timing".
    os << "  \"throughput\": {\"opsReplayed\": " << result.totalOps
       << ", \"tenants\": " << result.tenants.size();
    if (include_timing)
        os << ", \"opsPerSec\": " << jsonNumber(result.opsPerSec());
    os << "},\n";
    if (include_timing) {
        os << "  \"timing\": {\"jobs\": " << result.jobs
           << ", \"elapsedMs\": " << jsonNumber(result.elapsedMs)
           << "},\n";
    }
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
        const TenantResult &t = result.tenants[i];
        const ReplayStats &replay = t.replay;
        os << "    {\"benchmark\": " << jsonString(t.source)
           << ", \"variant\": " << jsonString(t.id)
           << ", \"layoutSeed\": " << spec.base.layoutSeed
           << ",\n     \"tenant\": " << jsonString(t.id)
           << ", \"ops\": " << replay.ops
           << ", \"checksum\": " << jsonString(hex64(replay.checksum))
           << ",\n     \"opsByKind\": {\"loads\": " << replay.kindOps[0]
           << ", \"stores\": " << replay.kindOps[1]
           << ", \"cforms\": " << replay.kindOps[2]
           << ", \"computes\": " << replay.kindOps[3] << "},\n     "
           << runJson({t}, resolveTenantConfig(spec, i).machine) << "}"
           << (i + 1 < result.tenants.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
printFleetSummary(std::ostream &os, const FleetResult &result)
{
    os << "fleet: " << result.tenants.size()
       << " tenants, ops=" << result.totalOps << "\n";
    for (const TenantResult &t : result.tenants) {
        const auto row = [&t](const char *name) {
            return jsonNumber(statValue({t}, name));
        };
        os << "tenant " << t.id << ": " << t.source
           << " ops=" << t.replay.ops
           << " checksum=" << hex64(t.replay.checksum)
           << " cycles=" << row("core.cycles") << " ipc=" << row("core.ipc")
           << " faults=" << row("califorms.securityFaults") << "\n";
    }
}

} // namespace califorms::fleet
