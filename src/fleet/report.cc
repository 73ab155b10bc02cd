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

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

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

void
tenantJson(std::ostringstream &os, const TenantResult &t,
           const MachineParams &machine, std::uint64_t layout_seed)
{
    const ReplayStats &replay = t.replay;
    os << "    {\"benchmark\": " << jsonString(t.source)
       << ", \"variant\": " << jsonString(t.id)
       << ", \"layoutSeed\": " << u64(layout_seed)
       << ",\n     \"tenant\": " << jsonString(t.id)
       << ", \"ops\": " << u64(replay.ops)
       << ", \"checksum\": " << jsonString(hex64(replay.checksum))
       << ",\n     \"opsByKind\": {\"loads\": " << u64(replay.kindOps[0])
       << ", \"stores\": " << u64(replay.kindOps[1])
       << ", \"cforms\": " << u64(replay.kindOps[2])
       << ", \"computes\": " << u64(replay.kindOps[3])
       << "},\n     \"cycles\": " << u64(t.cycles)
       << ", \"instructions\": " << u64(t.instructions)
       << ", \"ipc\": "
       << jsonNumber(t.cycles ? static_cast<double>(t.instructions) /
                                    static_cast<double>(t.cycles)
                              : 0.0);
    for (const StatBlock block : kStatBlocks) {
        const std::string json = statBlockJson(t.mem, machine, block);
        if (!json.empty())
            os << ",\n     " << json;
    }
    os << ",\n     \"exceptions\": {\"delivered\": "
       << u64(t.exceptionsDelivered)
       << ", \"suppressed\": " << u64(t.exceptionsSuppressed) << "}}";
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
       << ", \"shards\": " << result.shards
       << ", \"durationOps\": " << u64(result.durationOps)
       << ", \"tenantSeedStride\": " << u64(result.tenantSeedStride)
       << "},\n";
    // The first-class throughput object: the deterministic counters
    // always; the wall-clock-derived rate only alongside "timing".
    os << "  \"throughput\": {\"opsReplayed\": " << u64(result.totalOps)
       << ", \"shards\": " << result.shards
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
        tenantJson(os, result.tenants[i],
                   resolveTenantConfig(spec, i).machine,
                   spec.base.layoutSeed);
        os << (i + 1 < result.tenants.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
printFleetSummary(std::ostream &os, const FleetResult &result)
{
    os << "fleet: " << result.tenants.size() << " tenants, "
       << result.shards << " shards, ops=" << result.totalOps << "\n";
    for (const TenantResult &t : result.tenants) {
        os << "tenant " << t.id << ": " << t.source
           << " ops=" << t.replay.ops
           << " checksum=" << hex64(t.replay.checksum)
           << " cycles=" << t.cycles
           << " ipc="
           << jsonNumber(t.cycles
                             ? static_cast<double>(t.instructions) /
                                   static_cast<double>(t.cycles)
                             : 0.0)
           << " faults="
           << static_cast<std::uint64_t>(
                  statValue(t.mem, "califorms.securityFaults"))
           << "\n";
    }
}

} // namespace califorms::fleet
