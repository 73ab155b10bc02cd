#include "fleet/engine.hh"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "config/config.hh"
#include "exp/campaign.hh"
#include "workload/synth.hh"

namespace califorms::fleet
{

double
FleetResult::opsPerSec() const
{
    if (elapsedMs <= 0)
        return 0;
    return static_cast<double>(totalOps) * 1000.0 / elapsedMs;
}

RunConfig
resolveTenantConfig(const FleetSpec &spec, std::size_t index)
{
    const TenantSpec &tenant = spec.tenants.at(index);
    RunConfig config = spec.base;
    if (!tenant.sets.empty()) {
        config::Config overlay;
        for (const auto &[key, value] : tenant.sets)
            if (const auto error = overlay.set(key, value))
                throw std::invalid_argument("tenant '" + tenant.id +
                                            "': " + *error);
        overlay.applyTo(config);
    }
    // The seed stride decorrelates same-workload tenants; an overlay
    // that pins workload.seed wins over it.
    if (!tenant.workload.empty() &&
        !tenant.overlaySets("workload.seed"))
        config.synth.seed = spec.base.synth.seed +
                            spec.base.fleet.tenantSeedStride * index;
    return config;
}

namespace
{

TenantResult
replayTenant(const FleetSpec &spec, std::size_t index)
{
    const TenantSpec &tenant = spec.tenants[index];
    const RunConfig config = resolveTenantConfig(spec, index);

    Machine machine(config.machine, ExceptionUnit::Policy::Record);
    // Trace tenants take durationOps as a cap; generator tenants are
    // built to produce exactly their budget.
    std::ifstream is;
    std::unique_ptr<TraceReader> reader;
    std::uint64_t cap = 0;
    if (tenant.workload.empty()) {
        is.open(tenant.tracePath, std::ios::binary);
        if (!is)
            throw std::runtime_error("tenant '" + tenant.id +
                                     "': cannot open trace '" +
                                     tenant.tracePath + "'");
        reader = openTraceReader(is);
        cap = spec.durationOps;
    } else {
        const std::uint64_t ops = spec.durationOps
                                      ? spec.durationOps
                                      : config.synth.ops;
        reader = makeSynthGenerator(tenant.workload, config.synth, ops);
    }
    TraceReader *const stream = reader.get();
    const ReplayStats replay = replayStreams(machine, {&stream, 1}, cap);
    return {snapshot(machine), tenant.id, tenant.source(), replay};
}

} // namespace

FleetResult
runFleet(const FleetSpec &spec, unsigned jobs)
{
    if (const auto error = validateTenants(spec.tenants))
        throw std::invalid_argument(*error);
    if (spec.base.machine.core.count > 1)
        throw std::invalid_argument(
            "fleet tenants are single-stream; core.count > 1 cannot "
            "take effect (add more tenants instead)");

    const std::size_t n = spec.tenants.size();
    FleetResult result;
    result.tenants.resize(n);
    result.tenantSeedStride = spec.base.fleet.tenantSeedStride;
    result.durationOps = spec.durationOps;
    result.jobs = exp::effectiveJobs(jobs);

    // One pool task per tenant; each writes its own pre-sized slot, so
    // the merge is just the vector.
    const auto start = std::chrono::steady_clock::now();
    exp::runTasks(
        n, [&](std::size_t t) { result.tenants[t] = replayTenant(spec, t); },
        jobs);
    const auto end = std::chrono::steady_clock::now();
    result.elapsedMs =
        std::chrono::duration<double, std::milli>(end - start).count();

    for (const TenantResult &tenant : result.tenants)
        result.totalOps += tenant.replay.ops;
    return result;
}

} // namespace califorms::fleet
