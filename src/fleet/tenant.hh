/**
 * @file tenant.hh
 * Tenant specifications for the fleet serving engine: what each
 * independent stream is (a synthetic generator or a trace file) and
 * how its machine deviates from the fleet's base configuration.
 *
 * Manifest format, one tenant per line ('#' starts a comment, blank
 * lines are ignored); `--tenant` takes exactly one such line:
 *
 *   <id> workload=<name> [key=value ...]
 *   <id> trace=<path>    [key=value ...]
 *
 * The id must be unique across the fleet (it keys the tenant's block
 * in the merged report). The overlay keys are validated against the
 * config ParamRegistry at parse time and restricted to what a tenant
 * can consume (overlayScope below); any other key is rejected with a
 * diagnostic rather than silently ignored.
 */

#ifndef CALIFORMS_FLEET_TENANT_HH
#define CALIFORMS_FLEET_TENANT_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hh"

namespace califorms::fleet
{

/** One tenant: an id, a stream source, and a validated overlay. */
struct TenantSpec
{
    std::string id;
    /** Synthetic generator name; empty for trace tenants. */
    std::string workload;
    /** Trace file path; empty for generator tenants. */
    std::string tracePath;
    /** Validated key=value overlay applied over the fleet base. */
    std::vector<std::pair<std::string, std::string>> sets;

    /** "workload=<name>" or "trace=<path>" — the report's benchmark
     *  column. */
    std::string source() const;

    /** True when the overlay pins @p key explicitly. */
    bool overlaySets(const std::string &key) const;
};

/** Parse one manifest line / --tenant spec into @p out. Returns a
 *  diagnostic on failure, std::nullopt on success. */
std::optional<std::string> parseTenantSpec(const std::string &line,
                                           TenantSpec &out);

/** Parse manifest text (comments and blank lines skipped), appending
 *  to @p out; diagnostics carry the 1-based line number. */
std::optional<std::string>
parseManifest(const std::string &text, std::vector<TenantSpec> &out);

/** Load a manifest file from disk. */
std::optional<std::string>
loadManifest(const std::string &path, std::vector<TenantSpec> &out);

/** The key scope of the fleet base --set/--config: mem.* (every
 *  tenant's machine) and fleet.*, plus workload.* when some tenant is
 *  a generator. */
config::KeyScope baseScope(const std::vector<TenantSpec> &tenants);

/** The key scope of one tenant's overlay: mem.*, plus workload.* on
 *  a generator tenant (a trace already fixes the stream). */
config::KeyScope overlayScope(const TenantSpec &tenant);

/** Fleet-level validation: at least one tenant, unique ids. */
std::optional<std::string>
validateTenants(const std::vector<TenantSpec> &tenants);

} // namespace califorms::fleet

#endif // CALIFORMS_FLEET_TENANT_HH
